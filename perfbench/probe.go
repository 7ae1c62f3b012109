package main

import (
	"context"
	"time"

	"tvsched"
	"tvsched/internal/bpred"
	"tvsched/internal/core"
	"tvsched/internal/fault"
	"tvsched/internal/isa"
	"tvsched/internal/mem"
	"tvsched/internal/sim"
	"tvsched/internal/tep"
	"tvsched/internal/workload"
)

// The traced run's cycle-loop probes. simProbe times sim session calls on
// cells shaped like paper-cold's; replayComponents feeds each benchmark's
// own generated stream through the public functions the pipeline calls per
// instruction, per stage or per cycle. Whatever of the measured ns/inst the
// replayed components do not cover is reported as the pipeline's rest.

const (
	probeWarmup = 10000
	probeInsts  = 20000
	replayInsts = 20000
	orderWidth  = 16 // issue candidates per select call in the replay
)

// simProbe runs, per benchmark, a cold cell (New, Warmup, Run at 0.97 V
// under ABS) and a checkpoint round trip (New, WarmupNeutral, Snapshot,
// New, Restore).
func simProbe(t *tally, tr *tracer) (cpi float64, runNs float64, err error) {
	ctx := context.Background()
	var newMs, warmNs, runNsPer, snapMs, restoreMs, snapKB []float64
	var cycles, committed uint64
	root := tr.begin("probe.sim", 0)
	for _, b := range tvsched.Benchmarks() {
		cfg := sim.Config{Benchmark: b, Scheme: core.ABS, VDD: fault.VHighFault, Warmup: probeWarmup, Seed: 1}
		sp := tr.begin("sim.new", root)
		start := time.Now()
		s, err := sim.New(cfg)
		newMs = append(newMs, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("sim.warmup", root)
		start = time.Now()
		if err := s.Warmup(ctx); err != nil {
			return 0, 0, err
		}
		warmNs = append(warmNs, float64(time.Since(start).Nanoseconds())/probeWarmup)
		tr.end(sp)
		sp = tr.begin("sim.run", root)
		start = time.Now()
		st, err := s.Run(ctx, probeInsts)
		if err != nil {
			return 0, 0, err
		}
		runNsPer = append(runNsPer, float64(time.Since(start).Nanoseconds())/float64(st.Committed))
		tr.end(sp)
		cycles += st.Cycles
		committed += st.Committed

		donor, err := sim.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		if err := donor.WarmupNeutral(ctx); err != nil {
			return 0, 0, err
		}
		sp = tr.begin("sim.snapshot", root)
		start = time.Now()
		snap, err := donor.Snapshot()
		snapMs = append(snapMs, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		snapKB = append(snapKB, float64(len(snap))/1024)
		fresh, err := sim.New(cfg)
		if err != nil {
			return 0, 0, err
		}
		sp = tr.begin("sim.restore", root)
		start = time.Now()
		err = fresh.Restore(snap)
		restoreMs = append(restoreMs, ms(time.Since(start)))
		tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	tr.end(root)
	t.layer("sim.new_ms", "ms", median(newMs))
	t.layer("sim.warmup_ns_per_inst", "ns", median(warmNs))
	t.layer("sim.run_ns_per_inst", "ns", median(runNsPer))
	t.layer("sim.snapshot_produce_ms", "ms", median(snapMs))
	t.layer("sim.restore_ms", "ms", median(restoreMs))
	t.layer("sim.snapshot_kb", "KB", median(snapKB))
	return float64(cycles) / float64(committed), median(runNsPer), nil
}

// replayComponents times each component on every benchmark's stream and
// returns their combined cost per committed instruction, given the cycles
// per instruction the sim probe measured.
func replayComponents(t *tally, tr *tracer, cpi float64) (float64, error) {
	var nextNs, violNs, stepNs, accessNs, bpNs, tepNs, orderNs []float64
	var perInst []float64
	root := tr.begin("probe.replay", 0)
	for _, b := range tvsched.Benchmarks() {
		prof, ok := workload.ByName(b)
		if !ok {
			continue
		}
		gen, err := workload.NewGenerator(prof, 1)
		if err != nil {
			return 0, err
		}
		insts := make([]isa.Inst, replayInsts)
		sp := tr.begin("workload.next", root)
		start := time.Now()
		for i := range insts {
			insts[i] = gen.Next()
		}
		next := float64(time.Since(start).Nanoseconds()) / replayInsts
		tr.end(sp)

		fc := fault.DefaultConfig(1)
		fc.Bias = prof.FaultBias
		model := fault.New(fc)
		env := fault.NewEnv(fault.VHighFault, 1)
		sp = tr.begin("fault.env_step", root)
		start = time.Now()
		for i := 0; i < replayInsts; i++ {
			env.Step()
		}
		step := float64(time.Since(start).Nanoseconds()) / replayInsts
		tr.end(sp)
		faulty := make([]bool, len(insts))
		sp = tr.begin("fault.violates", root)
		start = time.Now()
		for i, in := range insts {
			for s := isa.Fetch; s < isa.NumStages; s++ {
				if model.Violates(in.PC, s, env, uint64(i)) {
					faulty[i] = true
				}
			}
		}
		viol := float64(time.Since(start).Nanoseconds()) / float64(replayInsts*int(isa.NumStages))
		tr.end(sp)

		h := mem.NewHierarchy(mem.DefaultHierarchy())
		h.Prefill(gen.WarmRegion())
		accesses := 0
		sp = tr.begin("mem.access", root)
		start = time.Now()
		for _, in := range insts {
			h.InstAccess(in.PC)
			accesses++
			if in.Class.IsMem() {
				h.DataAccess(in.Addr)
				accesses++
			}
		}
		access := float64(time.Since(start).Nanoseconds()) / float64(accesses)
		tr.end(sp)

		bp := bpred.New(bpred.DefaultConfig())
		branches := 0
		sp = tr.begin("bpred.predict_update", root)
		start = time.Now()
		for _, in := range insts {
			if in.Class == isa.Branch {
				bp.Predict(in.PC)
				bp.Update(in.PC, in.Taken, in.Target)
				branches++
			}
		}
		bpc := float64(time.Since(start).Nanoseconds()) / float64(max(branches, 1))
		tr.end(sp)

		tp := tep.New(tep.DefaultConfig())
		sp = tr.begin("tep.lookup_train", root)
		start = time.Now()
		var hist uint64
		for i, in := range insts {
			tp.Lookup(in.PC, hist, false)
			tp.Train(in.PC, hist, faulty[i], isa.Issue)
			hist = hist<<1 | uint64(in.PC>>2&1)
		}
		tepc := float64(time.Since(start).Nanoseconds()) / replayInsts
		tr.end(sp)

		// Select: order windows of consecutive instructions as issue
		// candidates, timestamps from their sequence numbers.
		windows := replayInsts / orderWidth
		cands := make([]core.Candidate, replayInsts)
		for i, in := range insts {
			cands[i] = core.Candidate{Index: i, Timestamp: uint8(i) & core.TimestampMask, Faulty: faulty[i], Critical: in.Class.IsMem()}
		}
		buf := make([]core.Candidate, orderWidth)
		sp = tr.begin("core.order", root)
		start = time.Now()
		for w := 0; w < windows; w++ {
			copy(buf, cands[w*orderWidth:(w+1)*orderWidth])
			core.Order(core.CDS.Policy(), buf, uint8(w*orderWidth+orderWidth)&core.TimestampMask)
		}
		order := float64(time.Since(start).Nanoseconds()) / float64(windows)
		tr.end(sp)

		nextNs, violNs, stepNs = append(nextNs, next), append(violNs, viol), append(stepNs, step)
		accessNs, bpNs, tepNs, orderNs = append(accessNs, access), append(bpNs, bpc), append(tepNs, tepc), append(orderNs, order)
		perInst = append(perInst, next+float64(isa.NumStages)*viol+
			float64(accesses)/replayInsts*access+float64(branches)/replayInsts*bpc+
			tepc+cpi*(step+order))
	}
	tr.end(root)
	t.layer("workload.next_ns", "ns", median(nextNs))
	t.layer("fault.violates_ns", "ns", median(violNs))
	t.layer("fault.env_step_ns", "ns", median(stepNs))
	t.layer("mem.access_ns", "ns", median(accessNs))
	t.layer("bpred.predict_update_ns", "ns", median(bpNs))
	t.layer("tep.lookup_train_ns", "ns", median(tepNs))
	t.layer("core.order_ns", "ns", median(orderNs))
	return median(perInst), nil
}
