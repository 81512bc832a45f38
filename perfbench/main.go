// Command perfbench is the repository benchmark: one process runs one
// workload against the simulator's public layers and prints one JSON result
// line. It changes no program code; every layer is timed from outside,
// around calls to that layer's exported functions.
//
//	perfbench --workload paper-sweep|app-mpi|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, including the CPU profile folded by
// package, and the run writes its spans as a Chrome trace file under
// .bench_build/perfbench/. See README.md for the metric table.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// The sweep and serve workloads run cells without the facade, which is
// what registers the collective algorithms for a Job.
func init() { coll.Register() }

// outDir holds everything a run leaves behind, relative to the checkout.
const outDir = ".bench_build/perfbench"

// workload is one benchmark scenario. A run calls setup setupReps times
// (each call replaces the previous state, so set-up cost is sampled
// repeatedly), then measure for the timed phase, then check.
type workload interface {
	setupReps() int
	setup() error
	// measure runs operations until p's deadline, recording each into p.m.
	measure(p *phase) error
	// check verifies answers that are only checkable after the timed phase.
	check(m *measurement) error
	// layers adds the per-layer readings that need extra, untimed calls
	// (world builds, microbenchmarks, model counters) to m.layer.
	layers(m *measurement) error
	close()
}

// phase is one timed phase: its deadline, its tracer (nil when untraced)
// and the measurement it fills.
type phase struct {
	seconds float64
	start   time.Time
	tr      *tracer
	m       *measurement
}

func (p *phase) over() bool { return time.Since(p.start).Seconds() >= p.seconds }

// cpuTime is the CPU time the process has used, user and system, over all
// its threads. Operations are costed in it rather than in wall-clock time
// because, on a virtual machine whose kernel accounts steal time, CPU time
// leaves out the stretches the hypervisor gave the CPU to other
// guests (up to a quarter of a run on a shared 2-CPU virtual machine),
// which wall-clock time includes and which vary from minute to minute.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windows is how many equal slices of the timed phase a run reports on
// separately. Each end-to-end figure is the median of its value over the
// slices, so a slowdown of the shared host during part of a run moves it
// less than a figure over the whole run.
const windows = 6

// window is the slice of the timed phase that has begun.
func (p *phase) window() int {
	return min(int(time.Since(p.start).Seconds()/p.seconds*windows), windows-1)
}

// sample is one completed operation and the window it ran in.
type sample struct {
	ms  float64
	hit bool
	win int
}

// measurement collects one timed phase.
type measurement struct {
	ops       []sample
	win       int             // window of the next operation
	busy      []time.Duration // per window, time the operations took
	attempted int
	failed    int
	failures  []string
	layer     map[string]float64
	// quantile estimates latency percentiles: nearest-rank unless the
	// workload picks a smoother estimator for a small sample.
	quantile func(xs []float64, p float64) float64
}

func newMeasurement() *measurement {
	return &measurement{layer: map[string]float64{}, quantile: percentile}
}

// op records one operation of a serial workload: its latency and its
// share of the busy time.
func (m *measurement) op(d time.Duration, hit bool) {
	m.sample(d, hit)
	m.spent(d)
}

// sample records one operation's latency.
func (m *measurement) sample(d time.Duration, hit bool) {
	m.ops = append(m.ops, sample{ms: float64(d.Nanoseconds()) / 1e6, hit: hit, win: m.win})
	m.spent(0)
}

// spent adds time the operations took to the current window.
func (m *measurement) spent(d time.Duration) {
	for len(m.busy) <= m.win {
		m.busy = append(m.busy, 0)
	}
	m.busy[m.win] += d
}

// fail records one failed operation; the first few are kept for stderr.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) merge(o *measurement) {
	m.attempted += o.attempted
	m.failed += o.failed
	for _, f := range o.failures {
		if len(m.failures) < 10 {
			m.failures = append(m.failures, f)
		}
	}
}

// opsPerSec is the throughput over the whole phase.
func (m *measurement) opsPerSec() float64 {
	var busy time.Duration
	for _, d := range m.busy {
		busy += d
	}
	if busy <= 0 {
		return 0
	}
	return float64(len(m.ops)) / busy.Seconds()
}

// perWindow returns the median over the windows of f applied to each
// window's operations and busy time. Windows where f has no value (NaN)
// are left out; with none left the result is NaN.
func (m *measurement) perWindow(f func(ops []sample, busy time.Duration) float64) float64 {
	byWin := make([][]sample, len(m.busy))
	for _, s := range m.ops {
		byWin[s.win] = append(byWin[s.win], s)
	}
	var vals []float64
	for w, ops := range byWin {
		if v := f(ops, m.busy[w]); len(ops) > 0 && !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return median(vals)
}

// latencyQuantile is perWindow over the p-quantile of the latencies of
// the operations pick selects.
func (m *measurement) latencyQuantile(pick func(sample) bool, p float64) float64 {
	return m.perWindow(func(ops []sample, _ time.Duration) float64 {
		var xs []float64
		for _, s := range ops {
			if pick(s) {
				xs = append(xs, s.ms)
			}
		}
		return m.quantile(xs, p)
	})
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
	{"miss_ms_p50", "ms"},
	{"miss_ms_p90", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
// Every workload reports every name; a layer a workload does not reach
// reads 0.
var perLayer = func() []metricSpec {
	s := []metricSpec{
		{"machine.build_ms", "ms"},
		{"machine.build_ns_per_rank", "ns"},
	}
	for _, f := range sweepFigures {
		s = append(s, metricSpec{"bench.cell_ms." + f, "ms"})
	}
	s = append(s,
		metricSpec{"bench.extrap_iters", "count"},
		metricSpec{"bench.fingerprint_ms", "ms"},
	)
	for _, op := range mpiOps {
		s = append(s, metricSpec{"mpi.coll_ms." + op, "ms"})
	}
	s = append(s,
		metricSpec{"model.vtime_ps", "ps"},
		metricSpec{"model.torus_mb", "MB"},
		metricSpec{"model.dma_util", "ratio"},
		metricSpec{"model.tree_util", "ratio"},
		metricSpec{"model.bus_mb", "MB"},
		metricSpec{"model.cnk_syscalls", "count"},
		metricSpec{"serve.key_us", "us"},
		metricSpec{"serve.handler_hit_us", "us"},
		metricSpec{"serve.hits", "count"},
		metricSpec{"serve.misses", "count"},
		metricSpec{"serve.coalesced", "count"},
		metricSpec{"serve.rejected", "count"},
		metricSpec{"serve.hit_ratio", "ratio"},
		metricSpec{"serve.coalesce_ratio", "ratio"},
		metricSpec{"runtime.alloc_mb", "MB"},
		metricSpec{"runtime.allocs", "count"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"runtime.gc_pause_ms", "ms"},
	)
	for _, b := range cpuBuckets {
		s = append(s, metricSpec{"cpu_share." + b, "ratio"})
	}
	return append(s,
		metricSpec{"trace.overhead", "ratio"},
		metricSpec{"trace.spans", "count"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "paper-sweep":
		return newPaperSweep(seed)
	case "app-mpi":
		return newAppMPI(seed)
	case "serve-mix":
		return newServeMix(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (paper-sweep, app-mpi, serve-mix)", name)
}

func main() {
	name := flag.String("workload", "", "paper-sweep, app-mpi or serve-mix")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	record := flag.String("record-expected", "", "recompute the expected virtual times and write them to this file, then exit")
	flag.Parse()

	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and returns its result line.
func run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()

	setups := make([]float64, w.setupReps())
	for i := range setups {
		runtime.GC() // each set-up starts from the same collected heap
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	runtime.GC()

	stamp := newStamp(name, seed, seconds, traced)
	var res *result
	if traced {
		res, err = runTraced(w, name, seed, seconds, stamp)
	} else {
		res, err = runPlain(w, seconds, setups, stamp)
	}
	if err != nil {
		return nil, err
	}
	printStamp(stamp)
	return res, nil
}

// runPlain is the untraced run: one timed phase, end-to-end metrics.
func runPlain(w workload, seconds float64, setups []float64, stamp map[string]any) (*result, error) {
	m := newMeasurement()
	heap := bench.StartHeapSampler()
	err := w.measure(&phase{seconds: seconds, start: time.Now(), m: m})
	peak := heap.Peak()
	if err != nil {
		return nil, err
	}
	if err := w.check(m); err != nil {
		return nil, err
	}
	all := func(sample) bool { return true }
	hit := func(s sample) bool { return s.hit }
	miss := func(s sample) bool { return !s.hit }
	hits := 0
	for _, s := range m.ops {
		if s.hit {
			hits++
		}
	}
	stamp["samples"] = map[string]int{"ops": len(m.ops), "hits": hits, "misses": len(m.ops) - hits, "windows": len(m.busy), "setups": len(setups)}
	vals := map[string]float64{
		"setup_s": median(setups),
		"ops_per_s": m.perWindow(func(ops []sample, busy time.Duration) float64 {
			return float64(len(ops)) / busy.Seconds()
		}),
		"op_ms_p50":    m.latencyQuantile(all, 0.5),
		"op_ms_p90":    m.latencyQuantile(all, 0.9),
		"hit_ms_p50":   m.latencyQuantile(hit, 0.5),
		"hit_ms_p90":   m.latencyQuantile(hit, 0.9),
		"miss_ms_p50":  m.latencyQuantile(miss, 0.5),
		"miss_ms_p90":  m.latencyQuantile(miss, 0.9),
		"peak_heap_mb": float64(peak) / (1 << 20),
	}
	return finish(m, endToEnd, vals)
}

// runTraced is the traced run: half the time untraced, half traced with
// spans and a CPU profile, so the tracing overhead is measured in the same
// process. Per-layer metrics come from the traced half.
func runTraced(w workload, name string, seed int64, seconds float64, stamp map[string]any) (*result, error) {
	plain := newMeasurement()
	if err := w.measure(&phase{seconds: seconds / 2, start: time.Now(), m: plain}); err != nil {
		return nil, err
	}
	if err := w.check(plain); err != nil {
		return nil, err
	}

	tr := newTracer(name)
	m := newMeasurement()
	var prof bytes.Buffer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	err := w.measure(&phase{seconds: seconds / 2, start: time.Now(), tr: tr, m: m})
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if err := w.check(m); err != nil {
		return nil, err
	}
	if err := w.layers(m); err != nil {
		return nil, err
	}
	m.merge(plain)

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	vals := m.layer
	for b, v := range shares {
		vals["cpu_share."+b] = v
	}
	vals["runtime.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	vals["runtime.allocs"] = float64(after.Mallocs - before.Mallocs)
	vals["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	vals["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if u := plain.opsPerSec(); u > 0 {
		vals["trace.overhead"] = 1 - m.opsPerSec()/u
	}
	vals["trace.spans"] = float64(tr.count())
	stamp["trace_file"] = tr.path(seed)
	if err := tr.write(seed, stamp); err != nil {
		return nil, err
	}
	return finish(m, perLayer, vals)
}

// finish assembles the result line: every named metric with its unit (0
// for a layer the workload does not reach), and the correctness verdict.
func finish(m *measurement, specs []metricSpec, vals map[string]float64) (*result, error) {
	res := &result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no samples", s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	res.Correct = m.failed == 0 && m.attempted > 0
	for _, f := range m.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	if m.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: error_rate %.6f (%d of %d operations)\n",
			float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	}
	return res, nil
}

// printStamp writes the host and vehicle stamp as one JSON line ahead of
// the result, so a figure from another machine or vehicle reads as such.
func printStamp(stamp map[string]any) {
	line, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(line))
}

// buildCost times mpi.NewWorld on each of a workload's partitions (the
// median of three builds each) and records machine.build_ms, the total over
// the partitions, and machine.build_ns_per_rank.
func buildCost(cfgs []hw.Config, m *measurement) error {
	var total float64
	ranks := 0
	for _, cfg := range cfgs {
		ns := make([]float64, 3)
		for i := range ns {
			t0 := time.Now()
			if _, err := mpi.NewWorld(cfg); err != nil {
				return err
			}
			ns[i] = float64(time.Since(t0).Nanoseconds())
		}
		total += median(ns)
		ranks += cfg.Ranks()
	}
	m.layer["machine.build_ms"] = total / 1e6
	m.layer["machine.build_ns_per_rank"] = total / float64(ranks)
	return nil
}
