package sim

// Steady-state iteration extrapolation.
//
// The paper's methodology times each collective over an ITERS loop; in a
// bit-deterministic simulator every post-warmup iteration is identical, so
// executing them all recomputes numbers the kernel already proved. This file
// detects the per-iteration fixpoint and replays the remaining iterations
// analytically.
//
// The mechanism is a canonical fingerprint of the kernel's observable state,
// taken at a caller-chosen iteration boundary (the measure loop's
// barrier-release instant). The fingerprint is a byte stream over everything
// that can influence future execution — pending ring and queue entries,
// parked processes and their waits and plans, event and counter waiter
// lists, live pipe reservations, plus caller-supplied layer state — with
// every virtual time encoded relative to the boundary instant, so two
// iterations that differ only by a constant time shift produce identical
// streams. Objects (events, counters, pipes, processes) are interned in
// first-appearance order, so per-iteration objects at different slab slots
// compare equal when their contents do. State that is *not* observable in a
// clean run is deliberately excluded: arena carve counts, free-list stacks,
// table lengths, bucket placement in the event queue, and names are all
// invisible to simulation code, and hashing them would make warmup churn
// (which permanently grows tables) look like perpetual change.
//
// Induction argument: the kernel is a deterministic transition function of
// its observable state. If the states at boundaries k-p and k are isomorphic
// up to a uniform time shift Δ (equal fingerprints), then the execution from
// boundary k reproduces the execution from boundary k-p shifted by Δ —
// including reaching boundary k+p in the same state shifted by another Δ.
// Therefore the remaining iterations repeat that p-iteration cycle, and
// Forward may apply the shift `whole-periods × Δ` at once: advance the
// clock, shift every pending queue entry and live pipe reservation, and
// replay each registered monotone accumulator (per-iteration elapsed sums,
// syscall counters, pipe statistics) by `whole-periods × its per-period
// delta`. The in-flight iterations — fewer than one period — then execute
// live and land the kernel in the exact observable state a full run would
// have reached. p == 1 is the classic fixpoint; small p > 1 shows up when a
// collective rotates buffers or pipelined chunks across iterations.
//
// Anything the fingerprint cannot canonicalize — pending closures (eFn/eHook
// entries), unknown layer state — refuses the capture; after a few refused
// or unequal attempts the detector gives up and the run simply executes
// every iteration, bit-identical to the noExtrap reference mode.

import (
	"bytes"
	"encoding/binary"
	"math"
	"sync/atomic"
)

// Hasher is implemented by layer state (collective-op entries, process
// residue) that knows how to canonicalize itself into a fingerprint.
type Hasher interface {
	SteadyState(f *FP)
}

// FP accumulates one canonical fingerprint: a byte stream of
// boundary-relative observable state plus a positional list of monotone
// accumulator samples. A walk that encounters state it cannot canonicalize
// calls Refuse, which voids the capture. The same visitor, switched to
// forward mode by Steady.Forward, re-runs the walk to apply extrapolated
// deltas to the registered monotone accumulators; in forward mode all
// stream-building methods are no-ops.
type FP struct {
	buf   []byte
	lanes []int64

	now     Time
	refused bool
	reason  string

	// Forward mode: Mono* calls consume the shared laneDelta positionally
	// instead of sampling, and everything else is a no-op.
	forward bool
	laneIdx int

	nBasePipes int

	// in is working state shared by every FP in the owning detector's
	// capture window: it is live only during one walk (a comparison needs
	// just buf and lanes), so a single instance serves the whole window.
	in *fpIntern
}

// fpIntern is the per-walk working state shared across a detector's capture
// window. Interning labels objects in first-appearance order, so
// structurally identical states hash identically regardless of which arena
// slots or heap objects they occupy. Labels are assigned before contents
// are walked, so mutually referential states (a counter whose waiter is a
// process parked on that counter) terminate. There is no seen-table: each
// walk draws a process-unique generation from fpGenSource and stamps it
// onto every object it labels (Event/Counter/Pipe/Proc fpGen+fpID fields),
// so membership is two word reads and a rack-scale capture allocates
// nothing per object — the map variant spent hundreds of megabytes (and
// the GC scans of pointer-keyed tables) per million-rank detector.
type fpIntern struct {
	gen    uint64
	nextID uint32

	scratch   []timed
	laneDelta []int64
}

// fpGenSource hands out process-unique walk generations. A plain counter
// per detector would collide across detectors sharing a kernel's objects;
// a process-wide atomic never repeats within any realistic run.
var fpGenSource atomic.Uint64

func newFPIntern() *fpIntern {
	return &fpIntern{}
}

// Stream-element markers. The walk's structure is deterministic, so these
// exist only to keep reference and first-appearance encodings from aliasing.
const (
	fpRef   = 0xE0
	fpNew   = 0xE1
	fpNil   = 0x00
	fpSome  = 0x01
	fpFalse = 0x00
	fpTrue  = 0x01
)

func newFP(nBasePipes int, in *fpIntern) *FP {
	return &FP{nBasePipes: nBasePipes, in: in}
}

func (f *FP) reset(now Time) {
	f.buf = f.buf[:0]
	f.lanes = f.lanes[:0]
	f.in.gen = fpGenSource.Add(1)
	f.in.nextID = 0
	f.now = now
	f.refused = false
	f.reason = ""
	f.forward = false
	f.laneIdx = 0
}

// Refuse voids the capture: the walk hit state that cannot be canonicalized
// (a pending closure, an unknown op type, residue in a mailbox). The first
// reason sticks.
func (f *FP) Refuse(reason string) {
	if f.refused || f.forward {
		return
	}
	f.refused = true
	f.reason = reason
}

// Refused reports whether this capture was voided.
func (f *FP) Refused() bool { return f.refused }

func (f *FP) raw8(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.buf = append(f.buf, b[:]...)
}

// I64 appends an absolute integer to the stream.
func (f *FP) I64(v int64) {
	if f.refused || f.forward {
		return
	}
	f.raw8(uint64(v))
}

// Bool appends a flag to the stream.
func (f *FP) Bool(v bool) {
	if f.refused || f.forward {
		return
	}
	if v {
		f.buf = append(f.buf, fpTrue)
	} else {
		f.buf = append(f.buf, fpFalse)
	}
}

// Time appends a virtual instant, normalized to the boundary: two captures
// whose instants differ by exactly the boundary shift hash identically.
func (f *FP) Time(t Time) { f.I64(int64(t - f.now)) }

// Dur appends a duration (shift-invariant already).
func (f *FP) Dur(d Time) { f.I64(int64(d)) }

// Str appends a length-prefixed string.
func (f *FP) Str(s string) {
	if f.refused || f.forward {
		return
	}
	f.raw8(uint64(len(s)))
	f.buf = append(f.buf, s...)
}

// MonoI64 registers a monotone accumulator: in capture mode its value is
// sampled positionally (outside the equality stream — accumulators grow
// between iterations by construction); in forward mode the extrapolated
// delta is added in place.
func (f *FP) MonoI64(p *int64) {
	if f.refused {
		return
	}
	if f.forward {
		*p += f.in.laneDelta[f.laneIdx]
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, *p)
}

// MonoInt is MonoI64 for int accumulators.
func (f *FP) MonoInt(p *int) {
	if f.refused {
		return
	}
	if f.forward {
		*p += int(f.in.laneDelta[f.laneIdx])
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, int64(*p))
}

// MonoTime is MonoI64 for virtual-time accumulators.
func (f *FP) MonoTime(p *Time) {
	if f.refused {
		return
	}
	if f.forward {
		*p += Time(f.in.laneDelta[f.laneIdx])
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, int64(*p))
}

// Event interns e and, on first appearance, hashes its observable content:
// fired flag and waiter list.
func (f *FP) Event(e *Event) {
	if f.refused || f.forward {
		return
	}
	if e.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(e.fpID))
		return
	}
	e.fpGen, e.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
	f.Bool(e.fired)
	f.raw8(uint64(len(e.waiters)))
	for _, w := range e.waiters {
		f.entryCanon(e.k, w)
	}
}

// Counter interns c and, on first appearance, hashes its value and waiter
// thresholds. Values are hashed absolute: every counter reachable at a
// steady boundary is per-operation state that restarts each iteration, and
// a genuinely monotone counter soundly (if conservatively) prevents
// steadiness rather than corrupting it.
func (f *FP) Counter(c *Counter) {
	if f.refused || f.forward {
		return
	}
	if c.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(c.fpID))
		return
	}
	c.fpGen, c.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
	f.raw8(uint64(c.v))
	f.raw8(uint64(len(c.waiters)))
	for _, w := range c.waiters {
		f.raw8(uint64(w.threshold))
		f.entryCanon(c.k, w.e)
	}
}

// PipeRef interns p and, on first appearance, hashes its rate, latency and
// boundary-relative next-free instant (an idle pipe hashes as free-now).
func (f *FP) PipeRef(p *Pipe) {
	if f.refused || f.forward {
		return
	}
	if p.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
	f.raw8(math.Float64bits(p.ppb))
	f.raw8(uint64(p.lat))
	rel := p.free - f.now
	if rel < 0 {
		rel = 0
	}
	f.raw8(uint64(rel))
}

// procRef interns a process index and, on first appearance, hashes the
// process's schedulable content: mode flags, what it waits on, and its plan
// position and steps. The continuation closure itself is not hashable; the
// program contract (a continuation is a pure function of the process's
// reached state) makes the reached state a sufficient proxy.
func (f *FP) procRef(k *Kernel, pi uint32) {
	if f.refused || f.forward {
		return
	}
	p := k.procAt(pi)
	if p.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
	f.Bool(p.inline)
	f.Bool(p.armed)
	if p.waitEv != nil {
		f.buf = append(f.buf, fpSome)
		f.Event(p.waitEv)
	} else {
		f.buf = append(f.buf, fpNil)
	}
	if p.waitC != nil {
		f.buf = append(f.buf, fpSome)
		f.Counter(p.waitC)
		f.raw8(uint64(p.waitGE))
	} else {
		f.buf = append(f.buf, fpNil)
	}
	f.raw8(uint64(p.plan.i))
	f.raw8(uint64(len(p.plan.steps)))
	for i := range p.plan.steps {
		st := &p.plan.steps[i]
		f.buf = append(f.buf, st.kind)
		f.raw8(uint64(st.d))
		f.raw8(uint64(st.bytes))
		f.raw8(uint64(st.n))
		if st.pipe != nil {
			f.buf = append(f.buf, fpSome)
			f.PipeRef(st.pipe)
		} else {
			f.buf = append(f.buf, fpNil)
		}
		if st.c != nil {
			f.buf = append(f.buf, fpSome)
			f.Counter(st.c)
		} else {
			f.buf = append(f.buf, fpNil)
		}
	}
}

// entryCanon hashes one pending queue/ring/waiter entry. Process-routed
// kinds hash by interned process; scheduled adds hash by counter and
// increment. Callback entries hold closures the fingerprint cannot see
// through, so they refuse the capture.
func (f *FP) entryCanon(k *Kernel, e entry) {
	if f.refused || f.forward {
		return
	}
	f.buf = append(f.buf, e.kind)
	switch e.kind {
	case eResume, eStep, eCont, eProg:
		f.procRef(k, e.idx)
	case eAdd:
		a := k.adds[e.idx]
		f.Counter(a.c)
		f.raw8(uint64(a.n))
	default: // eFn, eNone
		f.Refuse("pending callback entry")
	}
}

// steadyWalk hashes the kernel's observable scheduling state: pending ring
// entries in FIFO order, pending queue entries in (time, seq) order with
// boundary-relative times, every registered process, and the machine's base
// pipes. A failed kernel and an in-flight fused resume refuse.
func (k *Kernel) steadyWalk(f *FP) {
	if k.noExtrap {
		f.Refuse("noExtrap reference mode")
		return
	}
	if k.fused != nil {
		f.Refuse("fused resume pending")
		return
	}
	if k.failure != nil {
		f.Refuse("failed kernel")
		return
	}
	f.now = k.now
	f.raw8(uint64(k.blocked))

	f.raw8(uint64(k.ring.n))
	for i := 0; i < k.ring.n; i++ {
		f.entryCanon(k, k.ring.buf[(k.ring.head+i)&(len(k.ring.buf)-1)])
		if f.refused {
			return
		}
	}

	// The queue's drain order is its exact pop order, so the stream is
	// independent of how entries happen to be spread across buckets.
	f.in.scratch = k.queue.drain(f.in.scratch[:0])
	f.raw8(uint64(len(f.in.scratch)))
	for _, x := range f.in.scratch {
		f.Time(x.t)
		f.entryCanon(k, x.ent)
		if f.refused {
			return
		}
	}

	f.raw8(uint64(len(k.procs)))
	for _, pi := range k.procs {
		f.procRef(k, pi)
		if f.refused {
			return
		}
	}

	k.steadyPipes(f)
}

// steadyPipes registers the base pipes' cumulative statistics as monotone
// lanes and hashes every live reservation. Base pipes are the first
// nBasePipes registrations — the permanent machine devices present when the
// detector was created; pipes adopted later (per-operation protocol pipes)
// are reached through whatever pending state references them, but their
// cumulative statistics are not extrapolated (they are diagnostics of
// already-released objects). This walk runs in forward mode too, so its
// Mono* sequence must stay positionally identical between modes.
func (k *Kernel) steadyPipes(f *FP) {
	n := f.nBasePipes
	if n > len(k.pipes) {
		n = len(k.pipes)
	}
	for i := 0; i < n; i++ {
		p := k.pipes[i]
		f.MonoI64(&p.totalBytes)
		f.MonoTime(&p.busy)
		f.MonoI64(&p.transfers)
	}
	if f.forward || f.refused {
		return
	}
	// Live reservations: pipes still occupied past the boundary instant.
	live := 0
	for _, p := range k.pipes {
		if p.free > f.now {
			live++
		}
	}
	f.raw8(uint64(live))
	for _, p := range k.pipes {
		if p.free > f.now {
			f.PipeRef(p)
		}
	}
}

// Steady is the per-run steady-state detector. The measure-loop harness
// calls Capture at each iteration boundary; when the current capture's
// fingerprint equals one taken p boundaries earlier (p up to
// maxSteadyPeriod), the workload is periodic with period p, Capture returns
// true, and the harness may call Forward to extrapolate whole periods.
// Classic steady state is the p == 1 case. A capture that is refused or
// matches nothing counts as an attempt; after maxSteadyAttempts the detector
// stops fingerprinting so a workload that never becomes periodic pays
// nothing further.
type Steady struct {
	k     *Kernel
	extra func(*FP)

	// hist is a rolling window of the most recent captures, newest first:
	// hist[0] is the current capture, hist[p] the one p boundaries back.
	// histN counts the valid older entries; a refused capture empties the
	// window, since a comparison across it would span unobserved state.
	hist  [maxSteadyPeriod + 1]*FP
	histN int

	delta   Time // virtual time of one period (valid after a match)
	period  int  // matched period in boundaries (valid after a match)
	matched *FP  // the earlier capture the current one equals

	attempts int
}

// maxSteadyPeriod bounds the cycle length the detector recognizes. Not
// every measure loop contracts to a fixed point: torus collectives that
// rotate pipelined chunks settle into short cycles (periods 2 and 3 are
// both observed in the Table 1 allreduce sweep), which consecutive-capture
// comparison would never match, and independent sub-cycles compose into
// their LCM (the Fig. 10 FIFO broadcast at one size runs a 3-cycle of
// rotating queue slots against a 2-cycle of alternating back-pressure
// phases: period 6). A small window of retained fingerprints catches them;
// a window slot only allocates its buffers if a capture actually reaches
// it, so fast-settling runs pay for two or three slots regardless of the
// bound.
const maxSteadyPeriod = 6

// maxSteadyAttempts bounds fingerprint work on never-periodic workloads.
// Detecting period p needs roughly warmup + 2p boundaries, so the budget
// leaves room for a late-settling period-6 cycle.
const maxSteadyAttempts = 16

// NewSteady returns a detector for k. extra, if non-nil, is invoked on every
// capture (and every forward replay) to walk layer state above the kernel —
// collective-op entries, per-rank residue, measure-loop accumulators. The
// base-pipe set whose statistics are extrapolated is snapshotted here, so
// create the detector after the machine's permanent devices are adopted.
func NewSteady(k *Kernel, extra func(*FP)) *Steady {
	n := len(k.pipes)
	s := &Steady{k: k, extra: extra}
	if k.fpFree[0] != nil {
		// Reuse the slots (and their shared intern state) a finished
		// detector released; every capture rewinds its slot first.
		s.hist, k.fpFree = k.fpFree, s.hist
		for _, f := range s.hist {
			f.nBasePipes = n
		}
		return s
	}
	in := newFPIntern()
	for i := range s.hist {
		s.hist[i] = newFP(n, in)
	}
	return s
}

// Capture fingerprints the current state and reports whether it matches a
// capture from 1..maxSteadyPeriod boundaries back (periodic steady state
// detected; the smallest period wins). On a match, Delta reports the
// period's virtual-time length and Period the period in boundaries.
func (s *Steady) Capture() bool {
	if s.attempts >= maxSteadyAttempts {
		return false
	}
	// Rotate: the oldest capture's FP is recycled as the new current, so
	// buffer and interning-map capacity settle after the first few rounds.
	last := len(s.hist) - 1
	f := s.hist[last]
	copy(s.hist[1:], s.hist[:last])
	s.hist[0] = f
	f.reset(s.k.now)
	// Size this capture off the previous one: consecutive fingerprints of
	// the same loop are near-identical in length, and growing a rack-scale
	// buffer through append doublings would fault roughly twice the final
	// footprint in throwaway pages.
	if s.histN > 0 {
		prev := s.hist[1]
		if cap(f.buf) < len(prev.buf) {
			f.buf = make([]byte, 0, len(prev.buf)+len(prev.buf)/16)
		}
		if cap(f.lanes) < len(prev.lanes) {
			f.lanes = make([]int64, 0, len(prev.lanes))
		}
	}
	s.k.steadyWalk(f)
	if s.extra != nil && !f.refused {
		s.extra(f)
	}
	if f.refused {
		s.histN = 0
		s.attempts++
		return false
	}
	valid := s.histN
	if s.histN < last {
		s.histN++
	}
	for p := 1; p <= valid; p++ {
		prev := s.hist[p]
		if f.now > prev.now && len(f.lanes) == len(prev.lanes) && bytes.Equal(f.buf, prev.buf) {
			s.delta = f.now - prev.now
			s.period = p
			s.matched = prev
			return true
		}
	}
	s.attempts++
	return false
}

// Release hands the detector's fingerprint slots to the next detector
// created on the same kernel; the detector must not be used afterwards. A
// rack-scale capture is megabytes and every measurement builds a fresh
// detector, so without reuse each one regrows its slots' buffers —
// allocation that costs extra GC cycles in the extrapolated cells.
func (s *Steady) Release() {
	s.k.fpFree, s.hist = s.hist, [maxSteadyPeriod + 1]*FP{}
	s.matched = nil
}

// GaveUp reports that the detector exhausted its attempt budget without
// detecting a period; callers should stop invoking Capture.
func (s *Steady) GaveUp() bool { return s.attempts >= maxSteadyAttempts }

// LastRefusal returns the most recent capture's refusal reason ("" if the
// capture completed).
func (s *Steady) LastRefusal() string { return s.hist[0].reason }

// Delta returns the detected period's virtual-time length (valid after
// Capture returned true).
func (s *Steady) Delta() Time { return s.delta }

// Period returns the detected period in iteration boundaries (valid after
// Capture returned true). Callers must extrapolate whole periods: skipping
// a non-multiple would land the run at the wrong phase of the cycle.
func (s *Steady) Period() int { return s.period }

// Forward extrapolates reps whole periods after a successful Capture: the
// clock, every pending queue entry and every live pipe reservation advance by
// reps × Delta, and every monotone accumulator registered by the walk grows
// by reps × its per-period delta. The caller's in-flight iterations — fewer
// than one period of them — then execute live, landing the run in the exact
// observable state full execution would have reached.
//
// Forward runs inside a scheduled callback, which is safe precisely because
// the shift is uniform: every pending entry moves with the clock, so no
// entry's relative order or past/future classification changes.
func (s *Steady) Forward(reps int64) {
	if reps <= 0 {
		return
	}
	k := s.k
	shift := Time(reps) * s.delta
	k.queue.shiftAll(shift)
	for _, p := range k.pipes {
		if p.free > k.now {
			p.free += shift
		}
	}
	k.now += shift

	// Replay the monotone accumulators through the same walk in forward
	// mode: each lane grows by reps × (current − matched) — its growth
	// across one full cycle of the detected period.
	f := s.hist[0]
	if len(f.in.laneDelta) < len(f.lanes) {
		f.in.laneDelta = make([]int64, len(f.lanes))
	}
	f.in.laneDelta = f.in.laneDelta[:len(f.lanes)]
	for i := range f.lanes {
		f.in.laneDelta[i] = reps * (f.lanes[i] - s.matched.lanes[i])
	}
	f.forward = true
	f.laneIdx = 0
	k.steadyPipes(f)
	if s.extra != nil {
		s.extra(f)
	}
	f.forward = false
	if f.laneIdx != len(f.in.laneDelta) {
		panic("sim: steady forward walk visited a different lane count than capture")
	}
}
