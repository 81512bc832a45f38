package main

import (
	"math"
	"strings"
	"testing"
)

func mkReport(pairs ...any) *report {
	r := &report{}
	for i := 0; i < len(pairs); i += 2 {
		r.Experiments = append(r.Experiments, reportExperiment{
			ID: pairs[i].(string), WallMS: pairs[i+1].(float64),
		})
	}
	return r
}

// withAllocs sets alloc_bytes on the report's experiments in order.
func withAllocs(r *report, bytes ...uint64) *report {
	for i, b := range bytes {
		r.Experiments[i].AllocBytes = b
	}
	return r
}

func TestDiffGate(t *testing.T) {
	base := mkReport("fig7", 1000.0, "fig8", 1000.0)
	cases := []struct {
		name      string
		cand      *report
		g         gate
		regressed bool
	}{
		{"identical", mkReport("fig7", 1000.0, "fig8", 1000.0), gate{Threshold: 0.10}, false},
		{"faster", mkReport("fig7", 500.0, "fig8", 900.0), gate{Threshold: 0.10}, false},
		{"within threshold", mkReport("fig7", 1090.0, "fig8", 1000.0), gate{Threshold: 0.10}, false},
		{"beyond threshold", mkReport("fig7", 1111.0, "fig8", 1000.0), gate{Threshold: 0.10}, true},
		{"tight threshold", mkReport("fig7", 1060.0, "fig8", 1000.0), gate{Threshold: 0.05}, true},
		{"missing experiment warns", mkReport("fig7", 1000.0), gate{Threshold: 0.10}, false},
		{"missing experiment gates under strict", mkReport("fig7", 1000.0), gate{Threshold: 0.10, Strict: true}, true},
		{"extra experiment never gates", mkReport("fig7", 1000.0, "fig8", 1000.0, "fig9", 9999.0), gate{Threshold: 0.10}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows, _, regressed := diff(base, tc.cand, tc.g)
			if regressed != tc.regressed {
				t.Fatalf("regressed = %v, want %v (rows %+v)", regressed, tc.regressed, rows)
			}
			if len(rows) < len(base.Experiments) {
				t.Fatalf("lost baseline rows: %+v", rows)
			}
		})
	}
}

func TestDiffWarnings(t *testing.T) {
	base := mkReport("fig7", 1000.0, "gone", 100.0)
	cand := mkReport("fig7", 1000.0, "new", 50.0)

	rows, warnings, regressed := diff(base, cand, gate{Threshold: 0.10})
	if regressed {
		t.Fatalf("one-sided experiments must not gate by default: %+v", rows)
	}
	if len(warnings) != 2 {
		t.Fatalf("got %d warnings, want 2: %v", len(warnings), warnings)
	}
	if !strings.Contains(warnings[0], "gone") || !strings.Contains(warnings[0], "baseline only") {
		t.Fatalf("baseline-only warning wrong: %q", warnings[0])
	}
	if !strings.Contains(warnings[1], "new") || !strings.Contains(warnings[1], "candidate only") {
		t.Fatalf("candidate-only warning wrong: %q", warnings[1])
	}

	_, _, regressed = diff(base, cand, gate{Threshold: 0.10, Strict: true})
	if !regressed {
		t.Fatal("-strict must turn a missing baseline experiment into a regression")
	}
}

func TestAllocGate(t *testing.T) {
	base := withAllocs(mkReport("fig7", 1000.0, "fig8", 1000.0), 1<<30, 1<<30)
	grown := withAllocs(mkReport("fig7", 1000.0, "fig8", 1000.0), 1<<30, 3<<30)

	// The alloc gate is opt-in: without -allocs the growth only reports.
	rows, _, regressed := diff(base, grown, gate{Threshold: 0.10})
	if regressed {
		t.Fatalf("alloc growth must not gate when -allocs is off: %+v", rows)
	}
	if !rows[1].HasAlloc || math.Abs(rows[1].AllocPct-200.0) > 1e-9 {
		t.Fatalf("fig8 alloc delta wrong: %+v", rows[1])
	}

	rows, _, regressed = diff(base, grown, gate{Threshold: 0.10, Allocs: 0.10})
	if !regressed || !rows[1].AllocBad || rows[1].Regressed {
		t.Fatalf("-allocs 0.10 must gate a 3x alloc growth (and not as wall-clock): %+v", rows[1])
	}
	if rows[0].AllocBad {
		t.Fatalf("unchanged allocs must pass the gate: %+v", rows[0])
	}

	// Reports without memstats (old schema) never trip the alloc gate.
	old := mkReport("fig7", 1000.0, "fig8", 1000.0)
	rows, _, regressed = diff(old, grown, gate{Threshold: 0.10, Allocs: 0.10})
	if regressed {
		t.Fatalf("alloc gate must skip rows without baseline memstats: %+v", rows)
	}
	if rows[0].HasAlloc {
		t.Fatalf("HasAlloc must require both sides: %+v", rows[0])
	}
}

func TestEnvWarnings(t *testing.T) {
	mk := func(gogc int, memlimit int64, pgo string) *report {
		return &report{GOGC: gogc, GOMemLimit: memlimit, PGO: pgo}
	}
	off := int64(math.MaxInt64)
	cases := []struct {
		name       string
		base, cand *report
		want       []string // substrings, one per expected warning, in order
	}{
		{"identical", mk(100, off, ""), mk(100, off, ""), nil},
		{"gogc differs", mk(100, off, ""), mk(400, off, ""), []string{"gogc=100, candidate with gogc=400"}},
		{"gomemlimit differs", mk(100, off, ""), mk(100, 4<<30, ""), []string{"gomemlimit=off, candidate with gomemlimit=4294967296"}},
		{"pgo vs plain", mk(100, off, "cpu.pprof"), mk(100, off, ""), []string{"baseline built with PGO profile cpu.pprof, candidate without PGO"}},
		{"plain vs pgo", mk(100, off, ""), mk(100, off, "cpu.pprof"), []string{"candidate with PGO profile cpu.pprof"}},
		{"different profiles", mk(100, off, "a.pprof"), mk(100, off, "b.pprof"), []string{"PGO differs"}},
		{"old report predates gc fields", mk(0, 0, ""), mk(400, 4<<30, ""), nil},
		{"everything differs", mk(100, off, ""), mk(400, 4<<30, "cpu.pprof"), []string{"gogc differs", "gomemlimit differs", "PGO differs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warns := envWarnings(tc.base, tc.cand)
			if len(warns) != len(tc.want) {
				t.Fatalf("got %d warnings, want %d: %v", len(warns), len(tc.want), warns)
			}
			for i, sub := range tc.want {
				if !strings.Contains(warns[i], sub) {
					t.Errorf("warning %d = %q, want substring %q", i, warns[i], sub)
				}
			}
		})
	}
}

func TestItersVehicleWarnings(t *testing.T) {
	mk := func(scale int, noExtrap bool) *report {
		return &report{GOGC: 100, GOMemLimit: math.MaxInt64, ItersScale: scale, NoExtrap: noExtrap}
	}
	cases := []struct {
		name       string
		base, cand *report
		want       []string
	}{
		{"identical", mk(1, false), mk(1, false), nil},
		{"old report means 1x", mk(0, false), mk(1, false), nil},
		{"iters-scale differs", mk(1, false), mk(32, false), []string{"baseline ran at 1x iterations, candidate at 32x"}},
		{"extrapolation differs", mk(1, false), mk(1, true), []string{"baseline noextrap=false, candidate noextrap=true"}},
		{"both differ", mk(0, true), mk(32, false), []string{"iters-scale differs", "extrapolation differs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warns := envWarnings(tc.base, tc.cand)
			if len(warns) != len(tc.want) {
				t.Fatalf("got %d warnings, want %d: %v", len(warns), len(tc.want), warns)
			}
			for i, sub := range tc.want {
				if !strings.Contains(warns[i], sub) {
					t.Errorf("warning %d = %q, want substring %q", i, warns[i], sub)
				}
			}
		})
	}
}

// withIters sets iters/iters_scale on the report's experiments in order.
func withIters(r *report, scale int, iters ...int) *report {
	for i, n := range iters {
		r.Experiments[i].Iters = n
		r.Experiments[i].ItersScale = scale
	}
	return r
}

func TestPerExperimentItersWarnings(t *testing.T) {
	base := withIters(mkReport("fig7", 1000.0, "fig8", 1000.0), 1, 4, 4)

	// Same iteration counts: quiet.
	if _, warnings, _ := diff(base, withIters(mkReport("fig7", 1000.0, "fig8", 1000.0), 1, 4, 4), gate{Threshold: 0.10}); len(warnings) != 0 {
		t.Fatalf("matching iters warned: %v", warnings)
	}

	// A row measured at a different iteration count warns but never gates.
	cand := withIters(mkReport("fig7", 1000.0, "fig8", 1000.0), 32, 4, 128)
	_, warnings, regressed := diff(base, cand, gate{Threshold: 0.10})
	if regressed {
		t.Fatal("iters mismatch must not gate")
	}
	var itersWarn, scaleWarn int
	for _, w := range warnings {
		if strings.Contains(w, "iteration count differs") {
			itersWarn++
			if !strings.Contains(w, "fig8") || !strings.Contains(w, "baseline measured 4 iters, candidate 128") {
				t.Fatalf("iters warning wrong: %q", w)
			}
		}
		if strings.Contains(w, "iters-scale differs") {
			scaleWarn++
		}
	}
	if itersWarn != 1 {
		t.Fatalf("got %d iteration-count warnings, want 1: %v", itersWarn, warnings)
	}
	if scaleWarn != 2 { // both rows changed scale 1 -> 32
		t.Fatalf("got %d per-row iters-scale warnings, want 2: %v", scaleWarn, warnings)
	}

	// Old-schema rows (no iters recorded) stay quiet.
	old := mkReport("fig7", 1000.0, "fig8", 1000.0)
	if _, warnings, _ := diff(old, withIters(mkReport("fig7", 1000.0, "fig8", 1000.0), 1, 4, 4), gate{Threshold: 0.10}); len(warnings) != 0 {
		t.Fatalf("old-schema rows warned: %v", warnings)
	}
}

func TestDiffPercentDelta(t *testing.T) {
	base := mkReport("fig7", 2000.0, "fig8", 800.0)
	cand := mkReport("fig7", 1000.0, "fig8", 1000.0)
	rows, _, _ := diff(base, cand, gate{Threshold: 0.50})
	if rows[0].Pct != -50.0 {
		t.Fatalf("fig7 pct = %v, want -50", rows[0].Pct)
	}
	if rows[1].Pct != 25.0 {
		t.Fatalf("fig8 pct = %v, want +25", rows[1].Pct)
	}
}

func TestTotalDelta(t *testing.T) {
	mk := func(total float64) *report { return &report{TotalMS: total} }
	cases := []struct {
		name       string
		base, cand *report
		threshold  float64
		pct        float64
		regressed  bool
		ok         bool
	}{
		{"faster", mk(2000), mk(1000), 0.10, -50, false, true},
		{"within threshold", mk(1000), mk(1050), 0.10, 5, false, true},
		{"beyond threshold", mk(1000), mk(1200), 0.10, 20, true, true},
		{"baseline predates total_ms", mk(0), mk(1000), 0.10, 0, false, false},
		{"candidate missing total_ms", mk(1000), mk(0), 0.10, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pct, regressed, ok := totalDelta(tc.base, tc.cand, tc.threshold)
			if math.Abs(pct-tc.pct) > 1e-9 || regressed != tc.regressed || ok != tc.ok {
				t.Fatalf("totalDelta = (%v, %v, %v), want (%v, %v, %v)",
					pct, regressed, ok, tc.pct, tc.regressed, tc.ok)
			}
		})
	}
}

func TestDiffRowShape(t *testing.T) {
	base := mkReport("fig7", 2000.0, "gone", 100.0)
	cand := mkReport("fig7", 1000.0, "new", 50.0)
	rows, _, _ := diff(base, cand, gate{Threshold: 0.10})
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(rows), rows)
	}
	if rows[0].Ratio != 0.5 || rows[0].Regressed {
		t.Fatalf("fig7 row wrong: %+v", rows[0])
	}
	if !rows[1].Missing || rows[1].Regressed {
		t.Fatalf("gone row wrong (missing warns, not regresses): %+v", rows[1])
	}
	if rows[2].ID != "new" || rows[2].Regressed || rows[2].BaseMS != 0 {
		t.Fatalf("new row wrong: %+v", rows[2])
	}
}

// withPeakHeap sets peak_heap_inuse_bytes on the report's experiments in
// order.
func withPeakHeap(r *report, bytes ...uint64) *report {
	for i, b := range bytes {
		r.Experiments[i].PeakHeap = b
	}
	return r
}

func TestPeakHeapWarning(t *testing.T) {
	base := withPeakHeap(mkReport("fig7", 1000.0, "figs", 1000.0), 1<<30, 1<<30)
	grown := withPeakHeap(mkReport("fig7", 1000.0, "figs", 1000.0), 1<<30, 2<<30)

	// Peak-heap growth warns but never gates.
	_, warnings, regressed := diff(base, grown, gate{Threshold: 0.10, Allocs: 0.10})
	if regressed {
		t.Fatal("peak-heap growth must not gate")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "figs") ||
		!strings.Contains(warnings[0], "peak heap grew") {
		t.Fatalf("got warnings %v, want one figs peak-heap warning", warnings)
	}

	// Growth within the 10% allowance stays quiet.
	small := withPeakHeap(mkReport("fig7", 1000.0, "figs", 1000.0), 1<<30, 1<<30+1<<25) // +3.1%
	if _, warnings, _ := diff(base, small, gate{Threshold: 0.10}); len(warnings) != 0 {
		t.Fatalf("3%% peak-heap growth warned: %v", warnings)
	}

	// Reports without the field (old schema) never warn.
	old := mkReport("fig7", 1000.0, "figs", 1000.0)
	if _, warnings, _ := diff(old, grown, gate{Threshold: 0.10}); len(warnings) != 0 {
		t.Fatalf("peak-heap warning must require both sides: %v", warnings)
	}
}
