package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tvsched"
	"tvsched/internal/serve"
	"tvsched/internal/store"
)

// serve-zipf drives an in-process tvservd (serve.New over a result store)
// on loopback from a closed loop of one client sending a seeded Zipf mix.
//
// The population is serveBase base cells. Requests are grouped in epochs of
// serveEpoch requests; every epoch addresses the base cells under a fresh
// fault_bias. Bundled-benchmark sessions ignore fault_bias (they use the
// profile's calibrated bias) and the response report does not carry it, so
// an epoch's bodies equal the pinned base-cell bodies while their content
// addresses are new. Each epoch therefore repeats the same traffic shape —
// first touches simulate, evicted repeats come back from the store, hot
// repeats hit memory — instead of drifting to all-hits as a finite
// population is exhausted.
const (
	serveInsts  = 8000
	serveWarmup = 50000
	serveEpoch  = 600
	serveZipfS  = 1.0
	serveLRU    = 32 // result LRU entries, well under the 160-cell population
	// One client: on a host that sometimes gives two busy threads little
	// more than one core, a second client made the latencies follow the
	// host rather than the code.
	serveClients = 1
)

var (
	serveBenchmarks = []string{"bzip2", "gcc", "mcf", "sjeng"}
	serveSchemes    = []string{"Razor", "EP", "ABS", "FFS", "CDS"}
	serveVDDs       = []float64{0.96, 0.97, 0.98, 1.00, 1.02, 1.04, 1.06, 1.08}
)

// serveBase is the base-cell population: benchmarks × schemes × voltages.
func serveBase() []serve.RunRequest {
	var out []serve.RunRequest
	for _, b := range serveBenchmarks {
		for _, s := range serveSchemes {
			for _, v := range serveVDDs {
				out = append(out, serve.RunRequest{
					Schema: serve.RunRequestSchema, Benchmark: b, Scheme: s, VDD: v,
					Instructions: serveInsts, Warmup: serveWarmup, Seed: 1,
				})
			}
		}
	}
	return out
}

// baseKey names a base cell independent of its epoch.
func baseKey(r serve.RunRequest) string {
	return fmt.Sprintf("%s/%s/%g", r.Benchmark, r.Scheme, r.VDD)
}

// epochBias is the fault_bias namespace of epoch e: exact binary fractions,
// so the canonical config JSON is stable.
func epochBias(e int) float64 { return 1 + float64(e+1)/1024 }

// serveClass is how a response was produced, read from its headers.
type serveClass int

const (
	classMemory serveClass = iota
	classStore
	classMiss
	classShared
	classOther
	numServeClasses
)

var serveClassNames = [numServeClasses]string{"memory", "store", "miss", "shared", "other"}

// classify reads X-Tvsched-Cache (hit | shared | miss) and X-Tvsched-Source
// (memory | store | compute | ...).
func classify(h http.Header) serveClass {
	switch h.Get("X-Tvsched-Cache") {
	case "hit":
		switch h.Get(serve.SourceHeader) {
		case "memory":
			return classMemory
		case "store":
			return classStore
		}
	case "shared":
		return classShared
	case "miss":
		if h.Get(serve.SourceHeader) == "compute" {
			return classMiss
		}
	}
	return classOther
}

// zipf draws ranks with P(r) ∝ 1/(r+1)^s from a precomputed CDF.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), s)
		z.cdf[r] = sum
	}
	for r := range z.cdf {
		z.cdf[r] /= sum
	}
	return z
}

func (z *zipf) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// mix64 is SplitMix64's finalizer: request i's draw is a pure function of
// (seed, i), whichever client sends it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type serveBench struct {
	dir    string
	seed   uint64
	base   []serve.RunRequest
	perm   []int // rank → base cell, from the seed
	z      *zipf
	st     *store.Store
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	next   atomic.Int64 // next request index
}

// setUpServe opens a store, starts the server on loopback, and produces the
// warm snapshot of every benchmark with one primer request each (outside
// the traffic's fault_bias namespaces), so timed misses restore snapshots.
func setUpServe(e *env) (instance, error) {
	dir, err := e.subdir("serve")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Workers: 2, CacheEntries: serveLRU, SnapshotEntries: 8, Store: st,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		st.Close()
		return nil, err
	}
	base := serveBase()
	s := &serveBench{
		dir: dir, seed: e.seed, base: base, st: st, srv: srv,
		perm:   rand.New(rand.NewSource(int64(e.seed))).Perm(len(base)),
		z:      newZipf(len(base), serveZipfS),
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/v1/run",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}},
	}
	go s.hs.Serve(ln)
	for _, b := range serveBenchmarks {
		req := serve.RunRequest{Benchmark: b, Scheme: "ABS", VDD: tvsched.VNominal,
			Instructions: 1000, Warmup: serveWarmup, Seed: 1, FaultBias: 0.5}
		if _, _, err := s.do(req); err != nil {
			s.close()
			return nil, fmt.Errorf("primer %s: %w", b, err)
		}
	}
	return s, nil
}

func (s *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.srv.BeginDrain()
	s.srv.Drain(ctx)
	s.srv.Close()
	s.client.CloseIdleConnections()
	s.st.Close()
	os.RemoveAll(s.dir)
}

// request returns request i: epoch i/serveEpoch, base cell by a Zipf draw.
func (s *serveBench) request(i int64) (serve.RunRequest, string) {
	u := float64(mix64(s.seed^mix64(uint64(i)))>>11) / (1 << 53)
	b := s.base[s.perm[s.z.rank(u)]]
	b.FaultBias = epochBias(int(i / serveEpoch))
	return b, baseKey(b)
}

// statusError is a response other than 200.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// do posts one request and returns its headers and body; any status but
// 200 is a *statusError.
func (s *serveBench) do(req serve.RunRequest) (http.Header, []byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.Header, out, &statusError{resp.StatusCode, string(bytes.TrimSpace(out))}
	}
	return resp.Header, out, nil
}

// check verifies one answer: the digest header must be the request's
// content address and the body the pinned bytes of its base cell.
func check(req serve.RunRequest, key string, h http.Header, body []byte) bool {
	cfg, err := req.Config()
	if err != nil || h.Get("X-Tvsched-Digest") != cfg.Digest() {
		return false
	}
	sum := sha256.Sum256(body)
	return servePins[key] == hex.EncodeToString(sum[:])
}

func (s *serveBench) measure(budget time.Duration, tr *tracer) (*tally, error) {
	t := &tally{}
	var (
		mu      sync.Mutex
		lat     [numServeClasses][]float64
		failed  int
		refused int // 429s, also counted in failed
		wg      sync.WaitGroup
		lastEnd time.Time
	)
	a0 := allocBytes()
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req, key := s.request(s.next.Add(1) - 1)
				sp := tr.begin("serve.request", 0)
				t0 := time.Now()
				h, body, err := s.do(req)
				d := time.Since(t0)
				class := classOther
				ok := err == nil && check(req, key, h, body)
				if err == nil {
					class = classify(h)
				}
				tr.end(sp, "source", serveClassNames[class], "ok", fmt.Sprint(ok))
				var se *statusError
				mu.Lock()
				if ok && class != classOther {
					lat[class] = append(lat[class], ms(d))
				} else {
					failed++
				}
				if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
					refused++
				}
				if end := t0.Add(d); end.After(lastEnd) {
					lastEnd = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.alloc = allocBytes() - a0
	for c := range lat {
		t.attempted += len(lat[c])
	}
	t.attempted += failed
	t.failed = failed
	t.work = float64(t.attempted)
	t.workTime = lastEnd.Sub(start)
	t.units = t.attempted
	t.fast = lat[classMemory]
	t.slow = lat[classMiss]
	counts := map[string]int{}
	for c := range lat {
		counts[serveClassNames[c]] = len(lat[c])
	}
	counts["failed"] = failed
	t.note("requests", counts)
	if tr != nil {
		for _, c := range []struct {
			name  string
			class serveClass
		}{{"serve.memory_hits", classMemory}, {"serve.store_hits", classStore}, {"serve.misses", classMiss}, {"serve.shared", classShared}} {
			t.layer(c.name, "count", float64(len(lat[c.class])))
		}
		t.layer("serve.rejected", "count", float64(refused))
		for _, p := range []struct {
			name  string
			class serveClass
			q     float64
		}{
			{"serve.hit_p99_ms", classMemory, 0.99},
			{"serve.store_hit_p50_ms", classStore, 0.5},
			{"serve.miss_p90_ms", classMiss, 0.9},
			{"serve.shared_p50_ms", classShared, 0.5},
		} {
			t.layer(p.name, "ms", layerPercentile(tr.durations("serve.request", "source", serveClassNames[p.class]), p.q))
		}
	}
	return t, nil
}
