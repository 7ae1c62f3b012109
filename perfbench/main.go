// Command perfbench is the repository benchmark. It drives the simulator
// through the public functions of its modules under one of three workloads
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured untraced. With --trace 1 the run records spans around every call
// it makes into the program and reports the per-layer metrics instead. See
// README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally is what one timed phase of a workload measured.
type tally struct {
	attempted, failed int
	// work is the units of work completed over workTime: simulated
	// instructions (paper-cold), executed cells (campaign-warm) or
	// completed requests (serve-zipf).
	work     float64
	workTime time.Duration
	// units counts the operations alloc is divided by: regeneration passes,
	// executed cells or requests.
	units int
	alloc uint64
	// fast and slow are latency samples in ms of the workload's cheap and
	// expensive operation classes (see README.md).
	fast, slow []float64
	// layers holds per-layer values a traced phase measured.
	layers map[string]metric
	// notes are diagnostic values printed beside the result.
	notes map[string]any
}

// rate is the work completed per second of workTime.
func (t *tally) rate() float64 { return t.work / t.workTime.Seconds() }

func (t *tally) layer(name, unit string, v float64) {
	if t.layers == nil {
		t.layers = map[string]metric{}
	}
	t.layers[name] = metric{v, unit}
}

func (t *tally) note(name string, v any) {
	if t.notes == nil {
		t.notes = map[string]any{}
	}
	t.notes[name] = v
}

// instance is one set-up copy of a workload, ready to measure.
type instance interface {
	// measure runs the timed phase for at least budget (always at least one
	// whole operation) and reports what it saw. tr is nil when untraced.
	measure(budget time.Duration, tr *tracer) (*tally, error)
	close()
}

// bench builds instances of one workload; setUp is what setup_s times.
type bench struct {
	name  string
	setUp func(env *env) (instance, error)
}

var workloads = []bench{
	{"paper-cold", setUpPaper},
	{"campaign-warm", setUpCampaign},
	{"serve-zipf", setUpServe},
}

// env is the per-run context every workload shares.
type env struct {
	seed uint64
	// dir is a private scratch directory inside the checkout; traced runs
	// write their spans to traceDir.
	dir, traceDir string
	n             int // instances set up so far, for unique subdirectories
}

func (e *env) subdir(name string) (string, error) {
	e.n++
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", name, e.n))
	return d, os.MkdirAll(d, 0o755)
}

func main() {
	var (
		name    = flag.String("workload", "", "paper-cold | campaign-warm | serve-zipf")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 45, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory")
		traces  = flag.String("tracedir", filepath.Join(".bench_build", "traces"), "where traced runs write their spans")
		pin     = flag.Bool("pin", false, "print the pinned output digests of every workload and exit")
	)
	flag.Parse()
	if n := runtime.NumCPU(); n > 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, dir: dir, traceDir: *traces}

	if *pin {
		if err := printPins(e); err != nil {
			os.RemoveAll(dir)
			fatal(err)
		}
		return
	}
	var w *bench
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		os.RemoveAll(dir)
		fatal(fmt.Errorf("usage: --workload paper-cold|campaign-warm|serve-zipf --seed N --seconds S --trace 0|1"))
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(e, w, budget)
	} else {
		res, err = runPlain(e, w, budget)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// setUps is how many times a plain run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setUps = 5

// runPlain sets the workload up setUps times (keeping the last instance),
// measures it untraced, and reports the end-to-end metrics.
func runPlain(e *env, w *bench, budget time.Duration) (*result, error) {
	var (
		inst   instance
		setups []float64
	)
	for i := 0; i < setUps; i++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		if inst, err = w.setUp(e); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.close()
	calib, calibMem := calibrate()
	rssWindow := "timed phase"
	if err := resetPeakRSS(); err != nil {
		rssWindow = "process lifetime: " + err.Error()
	}
	cpu0, wall0 := cpuSeconds(), time.Now()
	t, err := inst.measure(budget, nil)
	if err != nil {
		return nil, err
	}
	t.note("cpu_utilization", (cpuSeconds()-cpu0)/time.Since(wall0).Seconds())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	fast, fastRule := typical(t.fast)
	slow, slowRule := typical(t.slow)
	res := &result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":          {median(setups), "s"},
			"throughput_per_s": {t.rate(), "1/s"},
			"fast_ms":          {fast, "ms"},
			"slow_ms":          {slow, "ms"},
			"alloc_mb":         {float64(t.alloc) / float64(t.units) / (1 << 20), "MB"},
			"rss_peak_mb":      {rss, "MB"},
			"ok_frac":          {float64(t.attempted-t.failed) / float64(t.attempted), "frac"},
		},
	}
	t.note("workload", w.name)
	t.note("seed", e.seed)
	t.note("host.calib_ns", calib)
	t.note("host.calib_mem_ns", calibMem)
	t.note("setup_s_samples", setups)
	t.note("fast_ms", fmt.Sprintf("%s of %d samples", fastRule, len(t.fast)))
	t.note("slow_ms", fmt.Sprintf("%s of %d samples", slowRule, len(t.slow)))
	t.note("units", t.units)
	t.note("rss_peak_mb", rssWindow)
	printNotes(t.notes)
	return res, nil
}

// printNotes writes the run's diagnostics as one JSON line ahead of the
// result line.
func printNotes(notes map[string]any) {
	b, err := json.Marshal(notes)
	if err == nil {
		fmt.Println(string(b))
	}
}

// allocBytes reads the cumulative heap bytes allocated by this process
// without stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS returns the heap that set-up left behind to the OS and
// restarts the kernel's peak-RSS counter (VmHWM), so that rss_peak_mb covers
// the timed phase rather than whichever of the set-ups peaked highest.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (VmHWM) since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// calibrate times two fixed kernels that do not touch the repository's
// code: a dependent multiply-xorshift chain (ns per step, the reported
// host.calib_ns) and a dependent pointer chase through a 4 MB random cycle
// (ns per load, host.calib_mem_ns), which feels the cache and memory
// contention a memory-bound simulation feels. Both are reported beside the
// metrics and never used to rescale them; a slow run set shows up here.
func calibrate() (aluNs, memNs float64) {
	const iters = 4 << 20
	var alu []float64
	x := uint64(0x9e3779b97f4a7c15)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			x *= 0x2545f4914f6cdd1d
		}
		alu = append(alu, float64(time.Since(start).Nanoseconds())/iters)
	}
	// Sattolo's algorithm: one cycle through every slot.
	next := make([]uint32, 1<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		j := int((x * 0x2545f4914f6cdd1d) % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var mem []float64
	p := uint32(0)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < iters/4; i++ {
			p = next[p]
		}
		mem = append(mem, float64(time.Since(start).Nanoseconds())/(iters/4))
	}
	if x == 0 && p == 0 { // keeps both chains live
		fmt.Fprintln(os.Stderr, "perfbench: calibration chains collapsed")
	}
	return median(alu), median(mem)
}
