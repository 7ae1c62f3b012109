package main

import (
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// Per-layer budgets of the workloads a traced run visits besides the one it
// was asked for: one pass (paper-cold, campaign-warm) or a few epochs
// (serve-zipf), enough for every layer metric to have samples.
const otherBudget = 2 * time.Second

// runTraced is the --trace 1 run. It measures the named workload untraced
// and then traced for half the budget each (their throughput ratio is the
// tracing overhead), visits the other workloads traced so every layer has
// samples, runs the cycle-loop probes, and writes all spans as a Chrome
// trace under .bench_build/traces.
func runTraced(e *env, w *bench, budget time.Duration) (*result, error) {
	tr := newTracer()
	all := &tally{}
	inst, err := w.setUp(e)
	if err != nil {
		return nil, err
	}
	calib, calibMem := calibrate()
	all.layer("host.calib_ns", "ns", calib)
	all.layer("host.calib_mem_ns", "ns", calibMem)
	plain, err := inst.measure(budget/2, nil)
	if err != nil {
		inst.close()
		return nil, err
	}
	gc0, pause0 := gcStats()
	traced, err := inst.measure(budget/2, tr)
	gc1, pause1 := gcStats()
	inst.close()
	if err != nil {
		return nil, err
	}
	all.layer("obs.trace_overhead_pct", "%", 100*(plain.rate()/traced.rate()-1))
	all.layer("go.gc_cycles", "count", float64(gc1-gc0))
	all.layer("go.gc_pause_ms", "ms", (pause1-pause0)*1e3)
	merge(all, plain)
	merge(all, traced)
	notes := traced.notes
	if notes == nil {
		notes = map[string]any{}
	}

	for i := range workloads {
		o := &workloads[i]
		if o == w {
			continue
		}
		inst, err := o.setUp(e)
		if err != nil {
			return nil, err
		}
		t, err := inst.measure(otherBudget, tr)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		merge(all, t)
	}

	cpi, runNs, err := simProbe(all, tr)
	if err != nil {
		return nil, err
	}
	perInst, err := replayComponents(all, tr, cpi)
	if err != nil {
		return nil, err
	}
	all.layer("pipeline.rest_ns_per_inst", "ns", runNs-perInst)

	path := filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	notes["workload"], notes["seed"], notes["trace"] = w.name, e.seed, path
	printNotes(notes)
	return &result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   all.layers,
	}, nil
}

// merge folds t's counts and layer metrics into all.
func merge(all, t *tally) {
	all.attempted += t.attempted
	all.failed += t.failed
	for k, v := range t.layers {
		all.layer(k, v.Unit, v.Value)
	}
}

// gcStats reads the completed GC cycles and the total stop-the-world pause
// time in seconds.
func gcStats() (uint64, float64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	h := s[1].Value.Float64Histogram()
	pause := 0.0
	for i, c := range h.Counts {
		// Bucket midpoints; the edge buckets may be infinite.
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case lo < -1e300:
			lo = hi
		case hi > 1e300:
			hi = lo
		}
		pause += float64(c) * (lo + hi) / 2
	}
	return s[0].Value.Uint64(), pause
}
