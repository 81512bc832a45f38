package main

// paper-sweep: every cell of Fig. 6, 7, 8, 10 and Table I at paper scale
// (8192-rank tree partitions, a 2048-rank torus midplane, default
// iterations), serially through bench.Cell.Run. The size lists are the
// trimmed (-quick) ones, so a run holds two or three passes.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/hw"
)

// sweepFigures are the experiments of one pass, in paper order.
var sweepFigures = []string{"fig6", "fig7", "fig8", "fig10", "table1"}

func sweepOptions() bench.Options { return bench.Options{Quick: true} }

// cellKey names a sweep cell in expected.json.
func cellKey(c bench.Cell) string { return fmt.Sprintf("%s/%s/%d", c.Experiment, c.Series, c.Arg) }

type paperSweep struct {
	rng   *rand.Rand
	cells []bench.Cell // every cell of a pass, figure by figure
	warm  []bench.Cell // the smallest cell of each distinct partition
}

func newPaperSweep(seed int64) (*paperSweep, error) {
	w := &paperSweep{rng: rand.New(rand.NewSource(seed))}
	for _, id := range sweepFigures {
		plan, err := bench.PlanExperiment(id, sweepOptions())
		if err != nil {
			return nil, err
		}
		w.cells = append(w.cells, plan.Cells...)
	}
	w.warm = warmCells(w.cells)
	return w, nil
}

// warmCells picks, for each distinct partition in order of first use, its
// cell with the smallest payload.
func warmCells(cells []bench.Cell) []bench.Cell {
	var out []bench.Cell
	idx := map[hw.Config]int{}
	for _, c := range cells {
		i, seen := idx[c.Cfg]
		switch {
		case !seen:
			idx[c.Cfg] = len(out)
			out = append(out, c)
		case c.Bytes() < out[i].Bytes():
			out[i] = c
		}
	}
	return out
}

// passOrder is the seeded figure order of one pass; cells keep their plan
// order within a figure, as a researcher's sweep runs them.
func (w *paperSweep) passOrder() []string {
	ids := make([]string, len(sweepFigures))
	for i, j := range w.rng.Perm(len(sweepFigures)) {
		ids[i] = sweepFigures[j]
	}
	return ids
}

func (w *paperSweep) setupReps() int { return 9 }

// setup empties the world pool and runs one warm-up cell per partition,
// which builds (or regrows) the pooled world.
func (w *paperSweep) setup() error {
	bench.DrainWorldPool()
	for _, c := range w.warm {
		vt, err := c.Run(bench.RunMode{})
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", cellKey(c), err)
		}
		if want := expected.PaperSweep[cellKey(c)]; int64(vt) != want {
			return fmt.Errorf("warm-up %s: virtual time %d ps, expected %d", cellKey(c), vt, want)
		}
	}
	return nil
}

// measure runs whole passes, starting one while the phase lasts, so the
// run ends with the pass under way at the deadline. Each cell is reported
// once, with the median CPU time of its passes: a cell's time depends on
// the cells before it (the first cell on a partition regrows the pooled
// world), the seeded figure order differs between passes, and a pass
// slowed by the shared host counts once per cell instead of once in every
// figure. The percentiles over the cells use the Harrell-Davis estimator.
func (w *paperSweep) measure(p *phase) error {
	m, tr := p.m, p.tr
	m.quantile = harrellDavis
	var fpNS atomic.Int64
	var cur int32 = -1
	if tr != nil {
		bench.SetFingerprintObserver(func(d time.Duration) {
			fpNS.Add(d.Nanoseconds())
			tr.record("bench.fingerprint", d, cur)
		})
		defer bench.SetFingerprintObserver(nil)
	}
	times := map[string][]float64{}
	passes := 0
	for passes == 0 || !p.over() {
		pass := tr.begin("pass", -1, 0)
		for _, id := range w.passOrder() {
			sp := tr.begin("bench.PlanExperiment", pass, 0)
			plan, err := bench.PlanExperiment(id, sweepOptions())
			tr.end(sp)
			if err != nil {
				return err
			}
			for _, c := range plan.Cells {
				if d, ok := w.runCell(c, m, tr, pass, &cur); ok {
					times[cellKey(c)] = append(times[cellKey(c)], float64(d.Nanoseconds()))
				}
			}
		}
		tr.end(pass)
		passes++
	}
	for k, v := range m.layer {
		m.layer[k] = v / float64(passes)
	}
	for _, c := range w.cells {
		if ns := times[cellKey(c)]; len(ns) > 0 {
			m.op(time.Duration(median(ns)), c.Iters >= extrapIters)
		}
	}
	m.layer["bench.fingerprint_ms"] = float64(fpNS.Load()) / 1e6 / float64(passes)
	return nil
}

// extrapIters is the shortest measure loop the bench extrapolator engages
// on (internal/bench/extrap.go). A cell that long (the Fig. 8 cells) counts
// as a hit, any other cell as a miss; the split is by input, so it holds
// whether or not the extrapolator engages.
const extrapIters = 4

// runCell measures the CPU time of one Cell.Run and checks its virtual
// time; ok is false for a failed cell.
func (w *paperSweep) runCell(c bench.Cell, m *measurement, tr *tracer, parent int32, cur *int32) (d time.Duration, ok bool) {
	m.attempted++
	x0 := bench.ExtrapolatedIters()
	*cur = tr.begin("bench.Cell.Run", parent, 0)
	c0 := cpuTime()
	vt, err := c.Run(bench.RunMode{})
	d = cpuTime() - c0
	tr.end(*cur)
	skipped := bench.ExtrapolatedIters() - x0
	if err != nil {
		m.fail("%s: %v", cellKey(c), err)
		return d, false
	}
	if want, ok := expected.PaperSweep[cellKey(c)]; !ok || int64(vt) != want {
		m.fail("%s: virtual time %d ps, expected %d", cellKey(c), vt, want)
		return d, false
	}
	m.layer["bench.cell_ms."+c.Experiment] += float64(d.Nanoseconds()) / 1e6
	m.layer["bench.extrap_iters"] += float64(skipped)
	return d, true
}

func (w *paperSweep) check(*measurement) error { return nil }

func (w *paperSweep) layers(m *measurement) error {
	cfgs := make([]hw.Config, len(w.warm))
	for i, c := range w.warm {
		cfgs[i] = c.Cfg
	}
	return buildCost(cfgs, m)
}

func (w *paperSweep) close() { bench.DrainWorldPool() }

// recordPaperSweep runs every cell once on a fresh pool.
func recordPaperSweep() (map[string]int64, error) {
	w, err := newPaperSweep(1)
	if err != nil {
		return nil, err
	}
	defer w.close()
	bench.DrainWorldPool()
	out := map[string]int64{}
	for _, c := range w.cells {
		vt, err := c.Run(bench.RunMode{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cellKey(c), err)
		}
		out[cellKey(c)] = int64(vt)
	}
	return out, nil
}
