package bench

import (
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// extrapCases is the cross-section the extrapolation equivalence tests run:
// one representative of each measure-loop family (tree bcast in both
// window-based and DMA protocols, torus allreduce) at iteration counts long
// enough for the detector to engage.
func extrapCases() []struct {
	name string
	run  func(mode RunMode) (sim.Time, error)
} {
	quad := goldenConfig(hw.Quad)
	smp := goldenConfig(hw.SMP)
	return []struct {
		name string
		run  func(mode RunMode) (sim.Time, error)
	}{
		{"bcast/shaddr/16K x8", func(m RunMode) (sim.Time, error) {
			return MeasureBcastRun(quad, mpi.BcastTreeShaddr, 16<<10, 8, m)
		}},
		{"bcast/shmem/256 x8", func(m RunMode) (sim.Time, error) {
			return MeasureBcastRun(quad, mpi.BcastTreeShmem, 256, 8, m)
		}},
		{"bcast/dmafifo/64K x8", func(m RunMode) (sim.Time, error) {
			return MeasureBcastRun(quad, mpi.BcastTreeDMAFIFO, 64<<10, 8, m)
		}},
		{"bcast/dmadirect/64K x8", func(m RunMode) (sim.Time, error) {
			return MeasureBcastRun(quad, mpi.BcastTreeDMADirect, 64<<10, 8, m)
		}},
		{"bcast/smp/4K x8", func(m RunMode) (sim.Time, error) {
			return MeasureBcastRun(smp, mpi.BcastTreeSMP, 4<<10, 8, m)
		}},
		{"allreduce/shaddr/512 x8", func(m RunMode) (sim.Time, error) {
			return MeasureAllreduceRun(quad, mpi.AllreduceTorusNew, 512, 8, m)
		}},
		{"allreduce/current/512 x8", func(m RunMode) (sim.Time, error) {
			return MeasureAllreduceRun(quad, mpi.AllreduceTorusCurrent, 512, 8, m)
		}},
	}
}

// TestExtrapolationMatchesFullExecution pins the tentpole contract: an
// extrapolated measurement is bit-identical to full execution, in both
// program and goroutine-reference modes — and the test fails if the detector
// never actually engaged, so the equality cannot pass vacuously.
func TestExtrapolationMatchesFullExecution(t *testing.T) {
	for _, tc := range extrapCases() {
		for _, reference := range []bool{false, true} {
			name := tc.name
			if reference {
				name += "/reference"
			}
			before := ExtrapolatedIters()
			got, err := tc.run(RunMode{Reference: reference})
			if err != nil {
				t.Fatalf("%s: extrap run: %v", name, err)
			}
			skipped := ExtrapolatedIters() - before
			want, err := tc.run(RunMode{Reference: reference, NoExtrap: true})
			if err != nil {
				t.Fatalf("%s: full run: %v", name, err)
			}
			if got != want {
				t.Errorf("%s: extrapolated %v != full execution %v", name, got, want)
			}
			if skipped == 0 {
				t.Errorf("%s: extrapolation never engaged (0 iterations skipped)", name)
			}
		}
	}
}

// TestExtrapolationPooledReuse leases the same pooled world alternately for
// extrapolated and full runs: extrapolation must land the kernel in a state
// Reset rewinds exactly like a fully executed run's, so every lease agrees.
func TestExtrapolationPooledReuse(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	run := func(m RunMode) sim.Time {
		t.Helper()
		got, err := MeasureBcastRun(cfg, mpi.BcastTreeShaddr, 16<<10, 6, m)
		if err != nil {
			t.Fatalf("measure: %v", err)
		}
		return got
	}
	want := run(RunMode{NoExtrap: true})
	for i := 0; i < 3; i++ {
		if got := run(RunMode{}); got != want {
			t.Fatalf("lease %d (extrap): got %v, want %v", i, got, want)
		}
		if got := run(RunMode{NoExtrap: true}); got != want {
			t.Fatalf("lease %d (full): got %v, want %v", i, got, want)
		}
	}
}

// TestExtrapolationItersScaleFidelity pins the high-iters mode: a 32×-scaled
// iteration count must produce exactly the value full execution of all 128
// iterations produces, with the tail extrapolated rather than executed —
// at least 120 of the 128 iterations must have been skipped (detection is
// allowed a warmup transient plus the attempt budget, nothing more).
func TestExtrapolationItersScaleFidelity(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	const iters = 4 * 32
	want, err := MeasureBcastRun(cfg, mpi.BcastTreeShaddr, 16<<10, iters, RunMode{NoExtrap: true})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	before := ExtrapolatedIters()
	got, err := MeasureBcastRun(cfg, mpi.BcastTreeShaddr, 16<<10, iters, RunMode{})
	if err != nil {
		t.Fatalf("scaled: %v", err)
	}
	if got != want {
		t.Fatalf("32x-iters extrapolated average %v != full execution %v", got, want)
	}
	if skipped := ExtrapolatedIters() - before; skipped < iters-8 {
		t.Fatalf("32x-iters run skipped only %d of %d iterations", skipped, iters)
	}
}
