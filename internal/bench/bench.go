// Package bench regenerates every figure and table of the paper's
// performance study (§VI) on the simulated machine: the micro-benchmark loop
// of Fig. 5 drives the collective under test, and each experiment sweeps the
// paper's message sizes and algorithm set.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// Options control experiment scale and effort.
type Options struct {
	// Racks selects the partition for the collective-network experiments:
	// 1 or 2 (the paper used 2 = 8192 ranks). Zero means each experiment's
	// default.
	Racks int
	// Iters is the micro-benchmark repetition count (Fig. 5's ITERS).
	// Zero means each experiment's default.
	Iters int
	// Quick trims the message-size sweeps for fast smoke runs.
	Quick bool
	// Workers bounds the sweep runner's pool: every (series, size) cell is
	// an independent deterministic kernel run, fanned across this many
	// goroutines and merged in fixed cell order. 0 means GOMAXPROCS; 1
	// forces the serial path.
	Workers int
	// Reference runs every kernel in noProgram reference mode: rank bodies
	// execute on pooled goroutines instead of as inline programs. Virtual
	// times are bit-identical either way; only wall-clock differs.
	Reference bool
	// NoExtrap disables steady-state iteration extrapolation: every measure
	// loop executes all of its iterations literally (the reference mode the
	// extrapolation equivalence gates compare against). Results are
	// bit-identical either way; only wall-clock differs.
	NoExtrap bool
	// ItersScale multiplies every experiment's resolved iteration count
	// (values < 2 mean no scaling): the high-fidelity mode matching the
	// paper-style hundreds-of-repetitions methodology, affordable because
	// post-steady iterations are extrapolated rather than executed.
	ItersScale int
}

func (o Options) iters(def int) int {
	it := o.Iters
	if it <= 0 {
		it = def
	}
	if o.ItersScale > 1 {
		it *= o.ItersScale
	}
	return it
}

// Figure is one reproduced figure or table: a set of series over message
// sizes.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Ranks and Iters are the resolved experiment scale — the values actually
	// used after per-experiment defaults are applied to Options — so a run
	// report stays attributable without re-deriving option defaults. For
	// scaling sweeps Ranks is the largest partition measured.
	Ranks  int
	Iters  int
	Sizes  []int
	Series []Series
}

// Series is one curve: a label and one value per Figure.Sizes entry.
type Series struct {
	Label  string
	Values []float64
}

// CSV renders the figure as comma-separated values for plotting.
func (f *Figure) CSV(w io.Writer) {
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	fmt.Fprintf(w, "# %s: %s (%s)\n", f.ID, f.Title, f.YLabel)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i, size := range f.Sizes {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, fmt.Sprintf("%d", size))
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.3f", s.Values[i]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

// Print renders the figure as an aligned text table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "(x: %s, y: %s)\n", f.XLabel, f.YLabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := make([]string, 0, len(f.Series)+1)
	head = append(head, f.XLabel)
	for _, s := range f.Series {
		head = append(head, s.Label)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for i, size := range f.Sizes {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, SizeLabel(size))
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.2f", s.Values[i]))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Value returns the measurement for (series label, size), for EXPERIMENTS
// cross-checks.
func (f *Figure) Value(label string, size int) (float64, bool) {
	si := -1
	for i, s := range f.Sizes {
		if s == size {
			si = i
		}
	}
	if si < 0 {
		return 0, false
	}
	for _, s := range f.Series {
		if s.Label == label {
			return s.Values[si], true
		}
	}
	return 0, false
}

// SizeLabel formats a byte count the way the paper's axes do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// MeasureBcast runs the Fig. 5 micro-benchmark for one broadcast
// configuration and returns the average per-iteration time (the slowest
// rank's, as a wall-clock observer would see).
//
//	elapsed_time = 0
//	for i < ITERS { MPI_Barrier; start = MPI_Wtime; MPI_Bcast; elapsed += ... }
//	elapsed_time /= ITERS
func MeasureBcast(cfg hw.Config, algo string, msg, iters int) (sim.Time, error) {
	return MeasureBcastRun(cfg, algo, msg, iters, RunMode{})
}

// RunMode selects the execution vehicle of one measurement. Every vehicle
// produces bit-identical virtual times; the fields trade wall-clock for
// reference simplicity and exist for overhead attribution and determinism
// cross-checks.
type RunMode struct {
	// Reference puts the kernel in noProgram mode: rank bodies run on
	// pooled goroutines instead of as inline programs.
	Reference bool
	// NoExtrap runs every measure-loop iteration literally instead of
	// extrapolating from the detected steady state (see extrap.go).
	NoExtrap bool
}

// MeasureBcastMode is MeasureBcast with an explicit reference toggle, kept
// for older callers; MeasureBcastRun is the full-mode form.
func MeasureBcastMode(cfg hw.Config, algo string, msg, iters int, reference bool) (sim.Time, error) {
	return MeasureBcastRun(cfg, algo, msg, iters, RunMode{Reference: reference})
}

// MeasureBcastRun is MeasureBcast with an explicit execution vehicle. The
// world comes from the pool (worldpool.go) and returns to it reset, so a
// sweep constructs one partition per distinct config rather than per cell;
// the kernel mode flags are (re)applied on every lease.
func MeasureBcastRun(cfg hw.Config, algo string, msg, iters int, mode RunMode) (sim.Time, error) {
	w, err := leaseWorld(cfg)
	if err != nil {
		return 0, err
	}
	t, err := measureBcastOn(w, algo, msg, iters, mode)
	releaseWorld(cfg, w, err)
	return t, err
}

// measureLoop is the Fig. 5 micro-benchmark loop (barrier; time one
// collective; repeat) as a state machine: its continuations are method
// values bound once per rank, where the closure form allocated two per
// iteration per rank — the dominant bench-side entry in the sweep
// allocation profile. Loops are carved from one per-measurement slab
// (indexed by rank) rather than allocated individually: at rack scale a
// million tiny pointer-bearing objects per measurement is real GC mark and
// sweep work.
type measureLoop struct {
	r          *mpi.Rank
	buf        data.Buf // bcast payload
	send, recv data.Buf // allreduce operands
	iters      int
	i          int
	elapsed    sim.Time
	start      sim.Time
	worst      *sim.Time     // the measurement's slowest-rank average, shared by every rank
	ext        *extrapolator // steady-state detector, nil when extrapolation is off

	afterBarrierFn func()
	afterOpFn      func()
}

//bgplint:hot
func (l *measureLoop) iter() {
	if l.i == l.iters {
		avg := l.elapsed / sim.Time(l.iters)
		if avg > *l.worst {
			*l.worst = avg
		}
		return
	}
	l.r.BarrierThen(l.afterBarrierFn)
}

// The after-barrier continuations consult the extrapolator before reading
// the clock: the boundary hook may fast-forward virtual time, in which case
// this iteration proceeds live as the final one.

//bgplint:hot
func (l *measureLoop) bcastAfterBarrier() {
	if l.ext != nil {
		l.ext.boundary()
	}
	l.start = l.r.Now()
	l.r.BcastThen(l.buf, 0, l.afterOpFn)
}

//bgplint:hot
func (l *measureLoop) barrierAfterBarrier() {
	if l.ext != nil {
		l.ext.boundary()
	}
	l.start = l.r.Now()
	l.r.BarrierThen(l.afterOpFn)
}

//bgplint:hot
func (l *measureLoop) allreduceAfterBarrier() {
	if l.ext != nil {
		l.ext.boundary()
	}
	l.start = l.r.Now()
	l.r.AllreduceSumThen(l.send, l.recv, l.afterOpFn)
}

//bgplint:hot
func (l *measureLoop) afterOp() {
	l.elapsed += l.r.Now() - l.start
	l.i++
	l.iter()
}

// MeasureAllreduce runs the micro-benchmark for one allreduce configuration.
func MeasureAllreduce(cfg hw.Config, algo string, doubles, iters int) (sim.Time, error) {
	return MeasureAllreduceRun(cfg, algo, doubles, iters, RunMode{})
}

// MeasureAllreduceMode is MeasureAllreduce with an explicit reference
// toggle, kept for older callers; MeasureAllreduceRun is the full-mode form.
func MeasureAllreduceMode(cfg hw.Config, algo string, doubles, iters int, reference bool) (sim.Time, error) {
	return MeasureAllreduceRun(cfg, algo, doubles, iters, RunMode{Reference: reference})
}

// MeasureAllreduceRun is MeasureAllreduce with an explicit execution vehicle
// (see MeasureBcastRun); the world is pooled the same way.
func MeasureAllreduceRun(cfg hw.Config, algo string, doubles, iters int, mode RunMode) (sim.Time, error) {
	w, err := leaseWorld(cfg)
	if err != nil {
		return 0, err
	}
	w.Tunables.Allreduce = algo
	w.M.K.SetNoProgram(mode.Reference || !mpi.HasProgAllreduce(algo))
	w.M.K.SetNoExtrap(mode.NoExtrap)
	ext := newExtrapolator(w, iters, mode.NoExtrap)
	bytes := doubles * data.Float64Len
	var worst sim.Time
	loops := make([]measureLoop, w.Size())
	_, err = w.RunProgram(func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.r, l.send, l.recv, l.iters, l.worst = r, r.NewBuf(bytes), r.NewBuf(bytes), iters, &worst
		l.afterBarrierFn = l.allreduceAfterBarrier
		l.afterOpFn = l.afterOp
		ext.attach(l)
		l.iter()
	})
	ext.close()
	releaseWorld(cfg, w, err)
	return worst, err
}

// BandwidthMBs converts a message size and per-operation time to the
// figures' MB/s metric.
func BandwidthMBs(msg int, t sim.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(msg) / t.Seconds() / 1e6
}

// treeConfig returns the collective-network experiment partition.
func treeConfig(o Options, mode hw.Mode) (hw.Config, error) {
	racks := o.Racks
	if racks == 0 {
		racks = 2 // the paper's 8192-rank system
	}
	cfg, err := hw.RackConfig(racks)
	if err != nil {
		return cfg, err
	}
	cfg.Mode = mode
	return cfg, nil
}

// torusConfig returns the torus experiment partition: a 512-node midplane by
// default (steady-state torus bandwidth is scale-insensitive; see DESIGN.md),
// or full racks when requested.
func torusConfig(o Options, mode hw.Mode) (hw.Config, error) {
	if o.Racks == 0 {
		cfg := hw.MidplaneConfig()
		cfg.Mode = mode
		return cfg, nil
	}
	return treeConfig(o, mode)
}

// sweep trims a full message-size list for quick runs, always retaining the
// first and last sizes and the headline sizes the paper quotes.
func sweep(quick bool, full []int, keep ...int) []int {
	if !quick {
		return full
	}
	want := map[int]bool{full[0]: true, full[len(full)-1]: true}
	for i := 3; i < len(full); i += 3 {
		want[full[i]] = true
	}
	for _, k := range keep {
		want[k] = true
	}
	out := make([]int, 0, len(want))
	for _, v := range full {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}
