// figS is the rack-scale capacity experiment layered on top of the paper's
// figures: quad-mode partitions from 256 to 1,048,576 ranks running the
// small-message core-specialized tree broadcast and MPI_Barrier. Unlike the
// paper figures, which report only virtual time, figS also records what the
// simulator itself costs at each scale — wall-clock construction time,
// incremental growth time (Reconfigure from the previous point), measurement
// wall time, per-rank resident bytes, and peak heap — so capacity regressions
// show up in the committed benchmark record, not just in OOM kills.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// ScaleBcastMsg is the figS broadcast payload: 8 KB keeps the run in the
// small-message regime where per-rank software overheads — exactly the costs
// the flyweight layout targets — dominate over stream time.
const ScaleBcastMsg = 8 << 10

// scalePoint is one partition of the capacity sweep.
type scalePoint struct {
	ranks int
	torus [3]int
}

// scalePoints lists the sweep geometries: quad-mode partitions from 256
// ranks (a 64-node board) to 1,048,576 ranks (262,144 nodes, a 256-rack
// class machine — beyond any built BG/P, which is the point of a capacity
// experiment). Quick mode keeps three decades including the 65,536-rank
// point the CI capacity smoke budget is written against.
func scalePoints(quick bool) []scalePoint {
	pts := []scalePoint{
		{256, [3]int{4, 4, 4}},
		{1024, [3]int{8, 8, 4}},
		{4096, [3]int{16, 8, 8}},
		{16384, [3]int{16, 16, 16}},
		{65536, [3]int{32, 32, 16}},
		{262144, [3]int{64, 32, 32}},
		{1048576, [3]int{64, 64, 64}},
	}
	if quick {
		return []scalePoint{pts[0], pts[2], pts[4]}
	}
	return pts
}

// scaleConfig is the partition for one capacity point: quad mode, phantom
// buffers.
func scaleConfig(p scalePoint) hw.Config {
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = p.torus[0], p.torus[1], p.torus[2]
	cfg.Mode = hw.Quad
	cfg.Functional = false
	return cfg
}

// measureBcastOn runs the Fig. 5 loop for one broadcast on an already-built
// world. MeasureBcastRun leases that world from the pool; figS owns its
// worlds so that construction and footprint are attributable per point.
func measureBcastOn(w *mpi.World, algo string, msg, iters int, mode RunMode) (sim.Time, error) {
	w.Tunables.Bcast = algo
	w.M.K.SetNoProgram(mode.Reference || !mpi.HasProgBcast(algo))
	w.M.K.SetNoExtrap(mode.NoExtrap)
	ext := newExtrapolator(w, iters, mode.NoExtrap)
	var worst sim.Time
	loops := make([]measureLoop, w.Size())
	_, err := w.RunProgram(func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.r, l.buf, l.iters, l.worst = r, r.NewBuf(msg), iters, &worst
		l.afterBarrierFn = l.bcastAfterBarrier
		l.afterOpFn = l.afterOp
		ext.attach(l)
		l.iter()
	})
	ext.close()
	return worst, err
}

// measureBarrierOn runs the loop with MPI_Barrier itself as the timed
// operation: one untimed barrier aligns the ranks, then the timed barrier's
// release arrives one interrupt-network latency later, so the per-iteration
// time equals Params.BarrierLatency exactly (analytic.TreeBarrier).
func measureBarrierOn(w *mpi.World, iters int, mode RunMode) (sim.Time, error) {
	w.M.K.SetNoProgram(mode.Reference)
	w.M.K.SetNoExtrap(mode.NoExtrap)
	ext := newExtrapolator(w, iters, mode.NoExtrap)
	var worst sim.Time
	loops := make([]measureLoop, w.Size())
	_, err := w.RunProgram(func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.r, l.iters, l.worst = r, iters, &worst
		l.afterBarrierFn = l.barrierAfterBarrier
		l.afterOpFn = l.afterOp
		ext.attach(l)
		l.iter()
	})
	ext.close()
	return worst, err
}

// scaleCell is everything figS reports about one partition size.
type scaleCell struct {
	bcast, barrier           sim.Time
	construct, grow, runWall time.Duration
	perRankBytes             float64
	peakHeapMB               float64
}

// measureScalePoint builds a fresh world for cfg and measures it. Heap
// accounting brackets construction with GC'd HeapInuse snapshots, which is
// why the sweep runs its points serially on the calling goroutine —
// concurrent kernel runs would pollute the deltas (Options.Workers is
// ignored). The world is returned still live so the caller can use it as the
// growth donor for the next point.
func measureScalePoint(cfg hw.Config, msg, iters int, mode RunMode) (scaleCell, *mpi.World, error) {
	runtime.GC()
	var before, settled, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return scaleCell{}, nil, err
	}
	cell := scaleCell{construct: time.Since(t0)}
	runtime.GC()
	runtime.ReadMemStats(&settled)
	if settled.HeapInuse > before.HeapInuse {
		cell.perRankBytes = float64(settled.HeapInuse-before.HeapInuse) / float64(cfg.Ranks())
	}
	t0 = time.Now()
	cell.bcast, err = measureBcastOn(w, mpi.BcastTreeShaddr, msg, iters, mode)
	if err != nil {
		return cell, nil, err
	}
	resetBetweenRuns(w)
	cell.barrier, err = measureBarrierOn(w, iters, mode)
	if err != nil {
		return cell, nil, err
	}
	cell.runWall = time.Since(t0)
	runtime.ReadMemStats(&after) // no GC: capture the run's high-water spans
	cell.peakHeapMB = float64(maxU64(settled.HeapInuse, after.HeapInuse)) / float64(1<<20)
	resetBetweenRuns(w)
	return cell, w, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// FigScale runs the capacity sweep. The Sizes axis is the rank count; the
// series mix units (labelled per series): virtual-time latencies for the two
// collectives, wall-clock construction/growth/run times, and footprint.
//
// The "Grow" series measures incremental construction: the previous point's
// world is grown in place with Reconfigure instead of being rebuilt, so the
// column is the marginal cost of capacity the partition already mostly owns.
// The first point has no predecessor; its grow cost is its cold build.
//
// Each point grows the donor first, drops it, and only then builds the fresh
// world it measures. The order matters for footprint, not semantics: growing
// after the build would hold two full-size worlds live at once at the top
// point (~2x peak RSS), and on a THP-less fault path the extra gigabytes of
// first-touch page zeroing dominate the sweep's wall clock. Dropping the
// grown donor before measureScalePoint's leading GC lets the fresh build
// reuse its freed spans instead of faulting new ones.
//
// Reference mode is honoured but inadvisable at the full scale: the top
// point would park a goroutine per rank (2^20 of them). The quick sweep caps
// at 65,536 ranks and runs fine in either mode.
func FigScale(o Options) (*Figure, error) {
	pts := scalePoints(o.Quick)
	iters := o.iters(2)
	sizes := make([]int, len(pts))
	for i, p := range pts {
		sizes[i] = p.ranks
	}
	fig := &Figure{
		ID:     "FigS",
		Title:  "Rack-scale capacity: small-message collectives and simulator footprint",
		XLabel: "ranks",
		YLabel: "mixed (per series label)",
		Ranks:  pts[len(pts)-1].ranks,
		Iters:  iters,
		Sizes:  sizes,
	}
	labels := []string{
		"Bcast 8K (us)",
		"Barrier (us)",
		"Construct (ms)",
		"Grow (ms)",
		"Run wall (ms)",
		"Per-rank (bytes)",
		"Peak heap (MB)",
	}
	fig.Series = make([]Series, len(labels))
	for i, l := range labels {
		fig.Series[i] = Series{Label: l, Values: make([]float64, len(pts))}
	}
	var donor *mpi.World
	for i, pt := range pts {
		cfg := scaleConfig(pt)
		var grow time.Duration
		if donor != nil {
			t0 := time.Now()
			if err := donor.Reconfigure(cfg); err != nil {
				return nil, fmt.Errorf("figS grow to %d ranks: %w", pt.ranks, err)
			}
			grow = time.Since(t0)
			donor = nil // grown world becomes garbage before the fresh build
		}
		cell, w, err := measureScalePoint(cfg, ScaleBcastMsg, iters, RunMode{Reference: o.Reference, NoExtrap: o.NoExtrap})
		if err != nil {
			return nil, fmt.Errorf("figS @ %d ranks: %w", pt.ranks, err)
		}
		if i == 0 {
			cell.grow = cell.construct
		} else {
			cell.grow = grow
		}
		donor = w // the fresh, measured world seeds the next point's growth
		for s, v := range []float64{
			cell.bcast.Microseconds(),
			cell.barrier.Microseconds(),
			float64(cell.construct) / float64(time.Millisecond),
			float64(cell.grow) / float64(time.Millisecond),
			float64(cell.runWall) / float64(time.Millisecond),
			cell.perRankBytes,
			cell.peakHeapMB,
		} {
			fig.Series[s].Values[i] = v
		}
	}
	return fig, nil
}
