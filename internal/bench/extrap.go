// Steady-state iteration extrapolation for the measure loops (the bench
// side of internal/sim/steady.go): post-warmup iterations of the Fig. 5
// loop are periodic in a deterministic simulator — usually a fixpoint,
// sometimes a short cycle when a collective rotates pipelined chunks — so
// once a boundary fingerprint matches one from a few boundaries back, the
// remaining whole periods are replayed analytically: the clock jumps, the
// per-rank elapsed/iteration accumulators grow by their per-period deltas,
// and the final partial period runs live to land the world in the exact
// state full execution reaches.
package bench

import (
	"sync/atomic"
	"time"

	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// extrapolator coordinates one measurement run's steady-state detection. It
// observes every rank's barrier-release instant (measureLoop calls boundary
// at the top of its after-barrier continuation) and fingerprints the world
// exactly once per iteration — at the first rank's release, the instant the
// loop state is most uniform: the remaining ranks' continuations are queued
// same-instant entries and every loop's counters agree.
type extrapolator struct {
	det   *sim.Steady
	iters int
	loops []*measureLoop
	calls int
	k     int // boundaries seen; boundary k starts iteration k (1-based)
	done  bool
}

// newExtrapolator returns a controller for one measurement on w, or nil when
// extrapolation cannot apply: the reference mode asked for full execution,
// the loop is too short to amortize a fingerprint, or a trace is attached
// (extrapolated iterations emit no trace records, so tracing runs execute
// fully).
//
// The iteration floor is an economics gate, not a correctness one. A
// detection needs two matching boundaries, and the first iteration is warmed
// up differently (cold window caches) so the earliest realistic match is
// boundary 3 — at iters == 3 that leaves zero iterations to skip while every
// boundary still pays a full-world fingerprint, a guaranteed net loss at
// rack scale. iters >= 4 is the first count where the common
// warmup-then-periodic shape profits; short default loops execute fully and
// the -iters-scale fidelity mode clears the gate everywhere.
func newExtrapolator(w *mpi.World, iters int, noExtrap bool) *extrapolator {
	if noExtrap || iters < 4 || w.M.Trace != nil {
		return nil
	}
	x := &extrapolator{iters: iters}
	x.det = sim.NewSteady(w.M.K, func(f *sim.FP) {
		w.SteadyState(f)
		f.I64(int64(len(x.loops)))
		for _, l := range x.loops {
			f.MonoTime(&l.elapsed)
			f.MonoInt(&l.i)
		}
	})
	return x
}

// attach registers one rank's measure loop. Loops are registered in
// RunProgram spawn order — deterministic — and all of them exist before the
// first barrier releases, so the lane layout is fixed by the first capture.
func (x *extrapolator) attach(l *measureLoop) {
	if x == nil {
		return
	}
	l.ext = x
	x.loops = append(x.loops, l)
}

// boundary runs at the top of every rank's after-barrier continuation. The
// first release of each iteration's barrier — call counts are per-iteration
// uniform, so that is every len(loops)-th call — captures a fingerprint;
// when it matches a capture Period() boundaries back, all remaining whole
// periods collapse into one Forward and the in-flight iteration leads the
// final (possibly partial) period, which executes live.
//
//bgplint:hot
func (x *extrapolator) boundary() {
	if x.done {
		return
	}
	x.calls++
	if (x.calls-1)%len(x.loops) != 0 {
		return
	}
	if x.det.GaveUp() {
		x.done = true
		return
	}
	x.k++
	start := time.Now() //bgplint:allow simdeterminism -- wall-clock fingerprint cost feeds the serve histogram; never read back into scheduling
	steady := x.det.Capture()
	observeFingerprint(time.Since(start)) //bgplint:allow simdeterminism -- wall-clock fingerprint cost feeds the serve histogram; never read back into scheduling
	if !steady {
		return
	}
	p := x.det.Period()
	if skip := int64(x.iters-x.k) / int64(p) * int64(p); skip > 0 {
		x.det.Forward(skip / int64(p))
		extrapolatedIters.Add(skip)
	}
	x.done = true
}

// close ends the measurement: the detector's fingerprint buffers go back to
// the kernel for the next measurement on the pooled world.
func (x *extrapolator) close() {
	if x != nil {
		x.det.Release()
	}
}

// extrapolatedIters counts iterations skipped by extrapolation across the
// process, for the serve /metrics endpoint.
var extrapolatedIters atomic.Int64

// ExtrapolatedIters returns the cumulative number of measure-loop iterations
// that were extrapolated instead of executed.
func ExtrapolatedIters() int64 { return extrapolatedIters.Load() }

// fingerprintObserver, when set, receives the wall-clock duration of every
// fingerprint capture (the serve layer feeds its latency histogram with it).
var fingerprintObserver atomic.Value // func(time.Duration)

// SetFingerprintObserver installs fn as the process-wide fingerprint-time
// observer. Pass nil-safe fast functions only: it runs inside the measure
// loop's barrier continuation.
func SetFingerprintObserver(fn func(time.Duration)) {
	fingerprintObserver.Store(fn)
}

func observeFingerprint(d time.Duration) {
	if fn, ok := fingerprintObserver.Load().(func(time.Duration)); ok && fn != nil {
		fn(d)
	}
}
