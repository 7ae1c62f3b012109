package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"tvsched"
	"tvsched/internal/core"
	"tvsched/internal/experiments"
	"tvsched/internal/sensitize"
)

// paper-cold regenerates every paper artifact through experiments.Suite —
// the calls `tvbench -exp all` makes — on a fresh suite per pass, so every
// cell is a cold, independent simulation.
const (
	paperInsts  = 40000
	paperWarmup = 20000
	paperSeed   = 1 // the paper's configuration, as tvbench runs it
	// circuitRepeats is how many times a pass regenerates the circuit
	// artifacts. They are about 5% of a pass, so one sample per pass left
	// fast_ms a mean of six samples that followed second-long host noise.
	// Only the first regeneration belongs to the pass that slow_ms and the
	// experiments.* layers time; the repeats add fast_ms samples.
	circuitRepeats = 5
)

// artifact is one table or figure of the paper.
type artifact struct {
	name string
	// sim marks artifacts built from simulations (the cycle loop); the rest
	// come from the circuit models (sensitize, netlist, ssta, power).
	sim bool
	gen func(s *experiments.Suite) (any, error)
}

// paperArtifacts is in the order tvbench -exp all regenerates them.
var paperArtifacts = []artifact{
	{"table1", true, func(s *experiments.Suite) (any, error) { return s.Table1() }},
	{"fig4", true, func(s *experiments.Suite) (any, error) { return s.Figure4() }},
	{"fig5", true, func(s *experiments.Suite) (any, error) { return s.Figure5() }},
	{"fig8", true, func(s *experiments.Suite) (any, error) { return s.Figure8() }},
	{"fig9", true, func(s *experiments.Suite) (any, error) { return s.Figure9() }},
	{"table3", false, func(*experiments.Suite) (any, error) { return experiments.Table3(), nil }},
	{"table2", false, func(*experiments.Suite) (any, error) { return experiments.Table2(), nil }},
	{"fig7", false, func(*experiments.Suite) (any, error) {
		return experiments.Figure7ToJSON(experiments.Figure7(paperSeed)), nil
	}},
}

// paperCells is the number of distinct simulations one regeneration runs:
// per benchmark the fault-free baseline plus every scheme at both
// evaluation voltages.
func paperCells() int {
	return len(tvsched.Benchmarks()) * (1 + 2*len(core.Schemes()))
}

// newPaperSuite is a fresh, empty suite: every cell it runs is cold. Its
// cells run one after another (tvbench runs them in parallel; the artifacts
// are the same either way): on a host that sometimes gives two busy threads
// little more than one core, a serial pass keeps its speed where a parallel
// one loses up to half of it.
func newPaperSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Config{
		Insts: paperInsts, Warmup: paperWarmup, Seed: paperSeed,
	})
}

// paperBench has no per-seed input: its input is the paper's configuration,
// so its artifacts and paper_err_pp repeat exactly on every run.
type paperBench struct{}

// setUpPaper primes one small cold cell per benchmark (profile tables,
// machine construction, page faults), so the first timed pass pays no lazy
// set-up.
func setUpPaper(*env) (instance, error) {
	cfg := experiments.Config{Insts: 2000, Warmup: 1000, Seed: paperSeed}
	for _, b := range tvsched.Benchmarks() {
		if _, err := experiments.Simulate(b, tvsched.ABS, tvsched.VHighFault, cfg); err != nil {
			return nil, err
		}
	}
	return paperBench{}, nil
}

func (paperBench) close() {}

func (paperBench) measure(budget time.Duration, tr *tracer) (*tally, error) {
	t := &tally{}
	perPass := float64(paperCells()) * float64(paperInsts+paperWarmup)
	var table1T, figuresT, circuitT time.Duration
	a0 := allocBytes()
	start := time.Now()
	for len(t.slow) == 0 || time.Since(start) < budget {
		suite := newPaperSuite()
		pass := tr.begin("paper.pass", 0)
		passStart := time.Now()
		var circuit time.Duration
		results := map[string]any{}
		for _, a := range paperArtifacts {
			sp := tr.begin("experiments."+a.name, pass)
			aStart := time.Now()
			v, err := a.gen(suite)
			d := time.Since(aStart)
			tr.end(sp)
			t.attempted++
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a.name, err)
			}
			results[a.name] = v
			if !matchesPin(paperPins, a.name, v) {
				t.failed++
			}
			switch {
			case !a.sim:
				circuit += d
				circuitT += d
			case a.name == "table1":
				t.workTime += d
				table1T += d
			default:
				t.workTime += d
				figuresT += d
			}
		}
		tr.end(pass)
		t.slow = append(t.slow, ms(time.Since(passStart)))
		t.fast = append(t.fast, ms(circuit))
		for r := 1; r < circuitRepeats; r++ {
			d, err := regenerateCircuit(t)
			if err != nil {
				return nil, err
			}
			t.fast = append(t.fast, ms(d))
		}
		t.work += perPass
		t.units++
		errPP, err := paperErrPP(results)
		if err != nil {
			return nil, err
		}
		t.note("paper_err_pp", errPP)
		t.layer("experiments.paper_err_pp", "pp", errPP)
	}
	t.alloc = allocBytes() - a0
	t.note("passes", t.units)
	t.note("cells_per_pass", paperCells())
	if tr != nil {
		n := time.Duration(t.units)
		t.layer("experiments.table1_s", "s", (table1T / n).Seconds())
		t.layer("experiments.figures_s", "s", (figuresT / n).Seconds())
		t.layer("experiments.circuit_s", "s", (circuitT / n).Seconds())
	}
	return t, nil
}

// regenerateCircuit regenerates the circuit artifacts once more, checks them
// against their pins, and returns how long they took.
func regenerateCircuit(t *tally) (time.Duration, error) {
	start := time.Now()
	for _, a := range paperArtifacts {
		if a.sim {
			continue
		}
		v, err := a.gen(nil)
		t.attempted++
		if err != nil {
			return 0, fmt.Errorf("%s: %w", a.name, err)
		}
		if !matchesPin(paperPins, a.name, v) {
			t.failed++
		}
	}
	return time.Since(start), nil
}

// digestOf is the SHA-256 of v's JSON encoding.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func matchesPin(pins map[string]string, name string, v any) bool {
	d, err := digestOf(v)
	return err == nil && pins[name] == d
}

// paperErrPP is the mean |measured − paper| in percentage points over the
// anchors EXPERIMENTS.md quotes: the average overhead reductions of Figures
// 4/5/8/9 (87/82/88/83 %) and the Figure 7 commonality of the issue-queue
// select, AGEN and forward-check logic (87.4/89/92.4 %).
func paperErrPP(results map[string]any) (float64, error) {
	var diffs []float64
	for _, a := range []struct {
		name  string
		paper float64
	}{{"fig4", 87}, {"fig5", 82}, {"fig8", 88}, {"fig9", 83}} {
		f, ok := results[a.name].(experiments.FigureData)
		if !ok {
			return 0, fmt.Errorf("paper error: %s missing", a.name)
		}
		diffs = append(diffs, math.Abs(f.Reduction()-a.paper))
	}
	f7, ok := results["fig7"].(*experiments.Figure7JSON)
	if !ok {
		return 0, fmt.Errorf("paper error: fig7 missing")
	}
	for _, a := range []struct {
		comp  sensitize.Component
		paper float64
	}{{sensitize.CompIQSelect, 87.4}, {sensitize.CompAGEN, 89}, {sensitize.CompFwdCheck, 92.4}} {
		v, ok := f7.Averages[a.comp.String()]
		if !ok {
			return 0, fmt.Errorf("paper error: fig7 %s missing", a.comp)
		}
		diffs = append(diffs, math.Abs(100*v-a.paper))
	}
	return mean(diffs), nil
}
