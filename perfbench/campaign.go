package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tvsched"
	"tvsched/internal/campaign"
	"tvsched/internal/experiments"
	"tvsched/internal/obs"
	"tvsched/internal/store"
)

// campaign-warm executes a warm-prefix-heavy campaign the way `tvplan -store`
// does: a journaled plan on a LocalRunner that shares one neutral warm
// snapshot per WarmKey, over a persistent result store. Every pass opens a
// fresh store and journal, so every cell executes and restores.
//
// One worker: cells then run in plan order, so a cell that restores its
// group's snapshot never starts while the group's leader is still warming
// up. With two workers a follower's time included a wait on the leader
// whose length depended on scheduling, and its median drifted by a quarter
// between runs of the same code.
const (
	campaignInsts   = 4000
	campaignWarmup  = 100000
	campaignWorkers = 1
)

// campaignSpec is 4 benchmarks × 4 seeds = 16 warm groups, each shared by
// 5 schemes × 2 voltages = 10 cells. The tag carries the input seed: it
// changes the plan hash and journal name, never a cell or a report line.
func campaignSpec(seed uint64) campaign.Spec {
	return campaign.Spec{
		Tag:          fmt.Sprintf("perfbench-%d", seed),
		Benchmarks:   []string{"bzip2", "gcc", "mcf", "sjeng"},
		Schemes:      []string{"Razor", "EP", "ABS", "FFS", "CDS"},
		VDDs:         []float64{tvsched.VHighFault, tvsched.VLowFault},
		Seeds:        []uint64{1, 2, 3, 4},
		Instructions: campaignInsts,
		Warmup:       campaignWarmup,
	}
}

// renderCampaignReport renders a cell's report the way cmd/tvplan does,
// under this benchmark's tool name.
func renderCampaignReport(cfg tvsched.Config, res tvsched.Result) ([]byte, error) {
	st := res.Stats
	return json.Marshal(&obs.RunReport{
		Schema:       obs.RunReportSchema,
		Tool:         "perfbench",
		Benchmark:    cfg.Benchmark,
		Scheme:       cfg.Scheme.String(),
		VDD:          cfg.VDD,
		Seed:         cfg.Seed,
		Instructions: st.Committed,
		Cycles:       st.Cycles,
		IPC:          st.IPC(),
		TEP:          experiments.TEPAccuracyFrom(&st),
	})
}

type campaignBench struct {
	env  *env
	dir  string
	plan *campaign.Plan
	pass int
}

// setUpCampaign plans the campaign and primes one warm group of the plan's
// shape (donor warmup, snapshot, restored cell) under a seed outside the
// plan, so construction, warmup and snapshot code are warm.
func setUpCampaign(e *env) (instance, error) {
	dir, err := e.subdir("campaign")
	if err != nil {
		return nil, err
	}
	plan, err := campaign.NewPlan(campaignSpec(e.seed))
	if err != nil {
		return nil, err
	}
	r := &campaign.LocalRunner{Checkpoint: true, Render: renderCampaignReport}
	cfg := plan.Cell(0).Config
	cfg.Seed = 0xbe7c4 // another WarmKey: primes the code, not the plan's cells
	if res := r.Run(context.Background(), campaign.Cell{Config: cfg}); res.Err != nil {
		return nil, res.Err
	}
	return &campaignBench{env: e, dir: dir, plan: plan}, nil
}

func (c *campaignBench) close() { os.RemoveAll(c.dir) }

// passResult is what one campaign pass leaves for the traced probes.
type passResult struct {
	dir, journal, storeDir string
	stream                 []byte
	stats                  campaign.Stats
	wall, exec, runnerBusy time.Duration
}

func (c *campaignBench) measure(budget time.Duration, tr *tracer) (*tally, error) {
	t := &tally{}
	a0 := allocBytes()
	start := time.Now()
	var last *passResult
	for t.units == 0 || time.Since(start) < budget {
		p, err := c.runPass(t, tr)
		if err != nil {
			return nil, err
		}
		if last != nil {
			os.RemoveAll(last.dir)
		}
		last = p
	}
	t.alloc = allocBytes() - a0
	t.note("passes", c.pass)
	t.note("cells_per_pass", c.plan.Total())
	if tr != nil {
		if err := c.layers(t, tr, last); err != nil {
			return nil, err
		}
	}
	os.RemoveAll(last.dir)
	return t, nil
}

// runPass executes the whole plan once into a fresh store and journal and
// checks the report stream against its pin.
func (c *campaignBench) runPass(t *tally, tr *tracer) (*passResult, error) {
	c.pass++
	p := &passResult{dir: filepath.Join(c.dir, fmt.Sprintf("pass-%d", c.pass))}
	p.storeDir = filepath.Join(p.dir, "store")
	p.journal = filepath.Join(p.dir, c.plan.Hash()+".tvcj")
	total := c.plan.Total()
	leader := make([]atomic.Bool, total)
	var busy atomic.Int64
	passSpan := tr.begin("campaign.pass", 0)

	wallStart := time.Now()
	st, err := store.Open(p.storeDir, 0)
	if err != nil {
		return nil, err
	}
	j, err := campaign.OpenJournal(p.journal, c.plan)
	if err != nil {
		st.Close()
		return nil, err
	}
	local := &campaign.LocalRunner{Checkpoint: true, Store: st, Render: renderCampaignReport}
	// The wrapping runner sets Config.PhaseHook (excluded from the digest):
	// a cell that runs the donor warmup of its warm group is its leader.
	run := func(ctx context.Context, cell campaign.Cell) campaign.CellResult {
		sp := tr.begin("campaign.cell", passSpan)
		cell.Config.PhaseHook = func(phase string, d time.Duration) {
			if phase == "warmup_neutral" {
				leader[cell.Index].Store(true)
			}
			tr.record("sim."+phase, sp, d)
		}
		s := time.Now()
		res := local.Run(ctx, cell)
		busy.Add(int64(time.Since(s)))
		tr.end(sp, "class", res.Class.String())
		return res
	}
	var (
		stream bytes.Buffer
		mu     sync.Mutex // OnCell runs on the worker goroutines
	)
	opts := campaign.Options{
		Workers: campaignWorkers,
		OnCell: func(cell campaign.Cell, res campaign.CellResult, d time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			if leader[cell.Index].Load() {
				t.slow = append(t.slow, ms(d))
			} else {
				t.fast = append(t.fast, ms(d))
			}
		},
	}
	execStart := time.Now()
	stats, err := campaign.Execute(context.Background(), c.plan, j, run, &stream, opts)
	p.exec = time.Since(execStart)
	jerr := j.Close()
	serr := st.Close()
	p.wall = time.Since(wallStart)
	tr.end(passSpan)
	for _, e := range []error{err, jerr, serr} {
		if e != nil {
			return nil, e
		}
	}
	p.stream, p.stats, p.runnerBusy = stream.Bytes(), stats, time.Duration(busy.Load())

	executed := stats.Done - stats.Replayed
	t.attempted += executed
	t.work += float64(executed)
	t.workTime += p.wall
	t.units += executed
	// Every executed cell must have restored its group's shared snapshot,
	// and the stream must be the pinned bytes.
	t.failed += executed - stats.Counts[campaign.ClassRestored]
	sum := sha256.Sum256(p.stream)
	if hex.EncodeToString(sum[:]) != campaignPin || executed != c.plan.Total() {
		t.failed += stats.Counts[campaign.ClassRestored]
	}
	return p, nil
}

// layers fills the campaign and store per-layer metrics from the traced
// passes and from timed calls into the journal and store of the last pass.
func (c *campaignBench) layers(t *tally, tr *tracer, p *passResult) error {
	t.layer("campaign.cell_ms", "ms", layerPercentile(tr.durations("campaign.cell", "", ""), 0.5))
	t.layer("campaign.exec_overhead_frac", "frac", 1-p.runnerBusy.Seconds()/(float64(campaignWorkers)*p.exec.Seconds()))
	t.layer("campaign.cells_restored", "count", float64(p.stats.Counts[campaign.ClassRestored]))
	t.layer("campaign.cells_cold", "count", float64(p.stats.Counts[campaign.ClassCold]))
	t.layer("campaign.warm_groups", "count", float64(c.plan.WarmGroups()))
	if fi, err := os.Stat(p.journal); err == nil {
		t.layer("campaign.journal_kb", "KB", float64(fi.Size())/1024)
	}

	// Journal appends: re-append the pass's lines into a fresh journal.
	raws := bytes.Split(bytes.TrimSpace(p.stream), []byte("\n"))
	lines := make([]campaign.Line, len(raws))
	for i, raw := range raws {
		if err := json.Unmarshal(raw, &lines[i]); err != nil {
			return err
		}
	}
	j, err := campaign.OpenJournal(filepath.Join(p.dir, "probe.tvcj"), c.plan)
	if err != nil {
		return err
	}
	start := time.Now()
	for i, raw := range raws {
		if err := j.Append(i, campaign.ClassRestored, raw); err != nil {
			j.Close()
			return err
		}
	}
	t.layer("campaign.journal_append_us", "us", float64(time.Since(start).Microseconds())/float64(len(raws)))
	if err := j.Close(); err != nil {
		return err
	}

	// Store: reopen (index rebuild), read every digest, write every body
	// into a fresh store.
	start = time.Now()
	st, err := store.Open(p.storeDir, 0)
	if err != nil {
		return err
	}
	t.layer("store.open_ms", "ms", ms(time.Since(start)))
	t.layer("store.kb", "KB", float64(st.Bytes())/1024)
	start = time.Now()
	for _, l := range lines {
		if _, ok, err := st.Get(l.Digest); err != nil || !ok {
			st.Close()
			return fmt.Errorf("store probe: %s missing (%v)", l.Digest, err)
		}
	}
	t.layer("store.get_us", "us", float64(time.Since(start).Microseconds())/float64(len(lines)))
	if err := st.Close(); err != nil {
		return err
	}
	fresh, err := store.Open(filepath.Join(p.dir, "probe-store"), 0)
	if err != nil {
		return err
	}
	start = time.Now()
	for _, l := range lines {
		if err := fresh.Put(l.Digest, l.Report); err != nil {
			fresh.Close()
			return err
		}
	}
	t.layer("store.put_us", "us", float64(time.Since(start).Microseconds())/float64(len(lines)))
	return fresh.Close()
}
