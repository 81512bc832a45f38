package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// appStream renders the first passes of the app-mpi program.
func appStream(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < 20; i++ {
		for _, ph := range genPass(rng) {
			b.WriteString(ph.key() + " ")
		}
	}
	return b.String()
}

// serveStream renders the hit set and the first steps of the serve-mix
// request stream.
func serveStream(t *testing.T, seed int64) string {
	g, err := newRequestGen(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range g.hits {
		fmt.Fprintf(&b, "%s %s\n", r.path, r.body)
	}
	for i := 0; i < 300; i++ {
		st, err := g.step()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%v %s %s\n", st.pair, st.reqs[0].body, st.reqs[1].body)
	}
	return b.String()
}

// sweepStream renders the figure order of the first paper-sweep passes.
func sweepStream(t *testing.T, seed int64) string {
	w, err := newPaperSweep(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintln(&b, w.passOrder())
	}
	return b.String()
}

func TestSeededStreams(t *testing.T) {
	streams := map[string]func(seed int64) string{
		"app-mpi":     appStream,
		"serve-mix":   func(seed int64) string { return serveStream(t, seed) },
		"paper-sweep": func(seed int64) string { return sweepStream(t, seed) },
	}
	for name, gen := range streams {
		a, again, other := gen(7), gen(7), gen(8)
		if a != again {
			t.Errorf("%s: seed 7 gave two different streams", name)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// TestServeMixShares pins the request mix the workload is documented with:
// about 18% of requests misses, some of them coalescing pairs.
func TestServeMixShares(t *testing.T) {
	g, err := newRequestGen(3)
	if err != nil {
		t.Fatal(err)
	}
	hits := map[*serveReq]bool{}
	for _, r := range g.hits {
		hits[r] = true
	}
	reqs, misses, pairs := 0, 0, 0
	for i := 0; i < 5000; i++ {
		st, err := g.step()
		if err != nil {
			t.Fatal(err)
		}
		if st.pair {
			pairs++
		}
		for _, r := range st.reqs {
			reqs++
			if !hits[r] {
				misses++
			}
		}
	}
	if share := float64(misses) / float64(reqs); share < 0.16 || share > 0.20 {
		t.Errorf("miss share %.3f, want about 0.18", share)
	}
	if pairs == 0 {
		t.Error("no coalescing pairs in 5000 steps")
	}
}

// TestAllPhasesRecorded checks that every phase the generator can draw has
// an expected answer.
func TestAllPhasesRecorded(t *testing.T) {
	for _, ph := range allPhases() {
		if len(expected.AppMPIOps[ph.key()]) != mpiReps {
			t.Errorf("no expected virtual times for %s", ph.key())
		}
	}
	w, err := newPaperSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range w.cells {
		if _, ok := expected.PaperSweep[cellKey(c)]; !ok {
			t.Errorf("no expected virtual time for %s", cellKey(c))
		}
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestEveryWorkloadReportsItsMetrics runs each workload briefly, untraced
// and traced, and checks that every metric appears with its unit, that the
// end-to-end metrics are positive and that no operation failed.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	for _, wl := range readBenchmarkJSON(t).Workloads {
		if testing.Short() && wl.Name == "paper-sweep" {
			continue // one pass takes tens of seconds
		}
		for _, traced := range []bool{false, true} {
			res, err := run(wl.Name, 1, 0.5, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: missing %s", wl.Name, traced, s.name)
				case v.Unit != s.unit:
					t.Errorf("%s: %s has unit %q, want %q", wl.Name, s.name, v.Unit, s.unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, s.name, v.Value)
				}
			}
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "bgpcoll/internal/data.Copy", "bgpcoll/internal/coll.installPayload"}, "data"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm"}, "runtime.sched"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode"}, "net"},
		{[]string{"bgpcoll/internal/sim.(*Kernel).step"}, "sim"},
		{[]string{"bgpcoll/internal/ccmi.(*Allreduce).Run"}, "coll"},
		{[]string{"bgpcoll/internal/torus.(*Network).Send"}, "resources"},
		{[]string{"main.checkPayload", "main.(*appMPI).runPhase"}, "perfbench"},
		{[]string{"bgpcoll/internal/geometry.Colors"}, "other"},
		{[]string{"runtime.sysmon"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldProfile folds a real CPU profile: every bucket is present and the
// shares sum to 1.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x += math.Sqrt(float64(len(fmt.Sprint(x))))
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok {
			t.Errorf("bucket %s missing", b)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	if shares["perfbench"] == 0 {
		t.Errorf("a busy loop in package main charged nothing to perfbench: %v", shares)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestHarrellDavis(t *testing.T) {
	// I_0.4(2, 3) = sum over j = 2..4 of C(4, j) 0.4^j 0.6^(4-j).
	if got := regIncBeta(2, 3, 0.4); math.Abs(got-0.5248) > 1e-9 {
		t.Errorf("I_0.4(2, 3) = %v, want 0.5248", got)
	}
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := harrellDavis(xs, 0.5); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("p50 of a symmetric sample = %v, want 5.5", got)
	}
	if got := harrellDavis(xs, 0.9); got <= 8 || got >= 10 {
		t.Errorf("p90 = %v, want between 8 and 10", got)
	}
	if !math.IsNaN(harrellDavis(nil, 0.5)) {
		t.Error("estimate of no samples is not NaN")
	}
}

func TestPerWindowMedian(t *testing.T) {
	m := newMeasurement()
	for w, ms := range []int{10, 30, 20} {
		m.win = w
		for range 5 {
			m.op(time.Duration(ms)*time.Millisecond, false)
		}
	}
	if got := m.latencyQuantile(func(sample) bool { return true }, 0.5); got != 20 {
		t.Errorf("median over windows of the window medians = %v, want 20", got)
	}
	// A window without hits has no hit quantile and is left out.
	if got := m.latencyQuantile(func(s sample) bool { return s.hit }, 0.5); !math.IsNaN(got) {
		t.Errorf("hit quantile without hits = %v, want NaN", got)
	}
}
