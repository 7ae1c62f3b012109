package main

import (
	"net/http"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{0, 0.5, 0, false},
		{19, 0.5, 10, false}, // 9 samples beyond the median
		{20, 0.5, 10, true},  // 10 beyond
		{99, 0.9, 90, false}, // 9 beyond p90
		{100, 0.9, 90, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, rule := typical([]float64{1, 2, 6}); rule != "mean" || v != 3 {
		t.Errorf("typical of 3 samples = %g (%s), want the mean 3", v, rule)
	}
	if _, rule := typical(seq(20)); rule != "p50" {
		t.Errorf("typical of 20 samples uses %s, want p50", rule)
	}
}

func TestClassify(t *testing.T) {
	hdr := func(cache, source string) http.Header {
		h := http.Header{}
		h.Set("X-Tvsched-Cache", cache)
		if source != "" {
			h.Set("X-Tvsched-Source", source)
		}
		return h
	}
	cases := []struct {
		h    http.Header
		want serveClass
	}{
		{hdr("hit", "memory"), classMemory},
		{hdr("hit", "store"), classStore},
		{hdr("miss", "compute"), classMiss},
		{hdr("shared", "compute"), classShared},
		{hdr("shared", ""), classShared},
		{hdr("miss", "forward"), classOther},
		{hdr("hit", "peer"), classOther},
		{hdr("", ""), classOther},
	}
	for _, c := range cases {
		if got := classify(c.h); got != c.want {
			t.Errorf("classify(cache=%q source=%q) = %s, want %s", c.h.Get("X-Tvsched-Cache"),
				c.h.Get("X-Tvsched-Source"), serveClassNames[got], serveClassNames[c.want])
		}
	}
}

// TestSmoke measures every workload for about a second, untraced and
// traced: every operation must pass its output check.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates for several seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 7, dir: t.TempDir()}
			inst, err := w.setUp(e)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			for _, tr := range []*tracer{nil, newTracer()} {
				got, err := inst.measure(time.Second, tr)
				if err != nil {
					t.Fatal(err)
				}
				if got.attempted == 0 || got.failed != 0 || got.work <= 0 || len(got.fast) == 0 || len(got.slow) == 0 {
					t.Fatalf("traced=%v: attempted %d failed %d work %g fast %d slow %d",
						tr != nil, got.attempted, got.failed, got.work, len(got.fast), len(got.slow))
				}
				if tr != nil && len(got.layers) == 0 {
					t.Fatalf("traced measure reported no layer metrics")
				}
			}
		})
	}
}
