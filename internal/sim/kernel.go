package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// entry is one schedulable unit, encoded without pointers so the run ring,
// the event queue, and every waiter list are memory the GC never has to scan.
// kind selects the dispatch and idx names the target: a slot in the kernel's
// callback table (eFn) or add table (eAdd), or a process's dense arena index
// (everything else).
//
// In a waiter list (Event.waiters, Counter.waiters) every kind other than eFn
// identifies a parked process, so Kernel.wake and the batch-wake loops do the
// blocked bookkeeping exactly for those kinds — the same split the old
// (fn, p) pair expressed with p != nil.
type entry struct {
	kind uint8
	idx  uint32
}

// entry kinds. The zero value (eNone) is never scheduled; popping one would
// indicate ring/queue corruption.
const (
	eNone   uint8 = iota
	eFn           // run callback-table slot idx
	eResume       // resume goroutine-backed process idx (returned by next)
	eStep         // advance process idx's fused plan (plan.go)
	eCont         // run process idx's program continuation (program.go)
	eProg         // step process idx's program-mode plan (program.go)
	eAdd          // apply add-table slot idx: a scheduled Counter.Add (AddAt)
)

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; create kernels with New.
//
// The kernel owns one clock, one radix event queue for future entries, one
// same-instant run ring, the callback and add entry tables, the process
// registry, and an arena. Every Event, Counter, Pipe, and Proc belongs to
// exactly one kernel, and all of its entries execute under a single
// virtual-CPU token, so simulation code is lock-free and deterministic.
type Kernel struct {
	now   Time
	queue eventQueue
	ring  runRing

	// sched returns the virtual CPU to the scheduler loop in Run. Whichever
	// process ends a direct-handoff chain sends here; Run receives once per
	// process resume it initiated.
	sched chan struct{}

	// fused is a process whose plan just completed on an instant step: next()
	// resumes it before popping any further entry, preserving the queue
	// position its unfused slice would have occupied.
	fused *Proc

	// cbs is the callback table: eFn entries name a slot here instead of
	// carrying the func value, keeping queue memory pointer-free. Slots are
	// recycled through cbFree in LIFO order — a deterministic policy, so a
	// reused kernel assigns the same slot numbers as a fresh one.
	cbs    []func()
	cbFree []uint32

	// adds is the scheduled-add table: eAdd entries name a slot here holding
	// a (counter, amount) pair, so a deferred Counter.Add costs no closure.
	// Slots recycle LIFO through addFree, like cbs.
	adds    []addAt
	addFree []uint32

	// procs lists every live process by dense arena index; each tracks its
	// own registry position (Proc.idx) for O(1) removal. blocked counts
	// processes currently waiting on an Event or Counter threshold (not a
	// timed sleep). If all events drain while blocked > 0 the simulation is
	// deadlocked.
	procs   []uint32
	blocked int

	failure error

	// cbPanic holds the value of a callback panic captured on a process
	// goroutine (see handoff); Run re-panics with it so callback panics
	// crash Run exactly as they do when the scheduler goroutine runs them.
	cbPanic any

	// arena holds the kernel's slab allocator for events, counters, and
	// processes (see arena.go). Everything carved from it lives exactly as
	// long as the kernel — or until Reset rewinds it.
	arena arena

	running bool

	// noHandoff forces every yield through the scheduler loop (the
	// pre-handoff two-rendezvous protocol). It exists for the determinism
	// stress tests, which compare event orderings with and without the
	// direct-handoff fast path.
	noHandoff bool

	// noFuse makes plan-attached waits run their steps through the ordinary
	// process primitives instead of fused callbacks (see plan.go) — the
	// reference semantics the determinism stress tests compare against.
	noFuse bool

	// noProgram makes SpawnProgram fall back to goroutine-backed processes
	// (see program.go): the same process bodies run through the blocking
	// primitives instead of inline continuations — the reference mode the
	// determinism stress tests and the CI program-vs-reference bench compare
	// against.
	noProgram bool

	// noExtrap disables steady-state iteration extrapolation (steady.go):
	// Steady.Capture refuses on a noExtrap kernel, so every measure-loop
	// iteration executes. The full-execution reference vehicle, mirroring
	// the flags above.
	noExtrap bool

	// pipes registers every pipe created on this kernel so Reset can rewind
	// their reservation state along with the clock.
	pipes []*Pipe

	// epoch counts Resets. Events, counters, and processes are stamped with
	// the epoch they were carved in; using a handle from a previous epoch
	// panics deterministically instead of corrupting the next run (the slab
	// slot may already belong to someone else).
	epoch uint32

	// fpFree holds the fingerprint slots a finished steady-state detector
	// released for the next one (Steady.Release); all nil until then.
	fpFree [maxSteadyPeriod + 1]*FP
}

// New returns a kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{sched: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetNoProgram toggles the goroutine-backed reference mode for SpawnProgram
// (see program.go). It must be called before any process is spawned; the two
// modes produce bit-identical event orderings, so this exists for the
// determinism stress tests and the program-vs-reference benchmark runs.
func (k *Kernel) SetNoProgram(v bool) { k.noProgram = v }

// SetNoExtrap toggles the full-execution reference vehicle for the steady-
// state extrapolation detector (steady.go): captures on a noExtrap kernel
// refuse, so every iteration executes. Extrapolated and full runs are
// bit-identical by construction; the flag exists for the equivalence tests
// and the -noextrap benchmark runs.
func (k *Kernel) SetNoExtrap(v bool) { k.noExtrap = v }

// NoExtrap reports whether steady-state extrapolation is disabled.
func (k *Kernel) NoExtrap() bool { return k.noExtrap }

// Reset returns the kernel to its post-New state while keeping every
// allocation it has accumulated: arena slabs, queue and ring capacity, the
// callback tables, grown waiter lists, and the pipes created on it. Pipes
// survive with their identity intact (their reservation state rewinds to
// zero); events, counters, and processes do not — their slab slots will be
// recarved, so handles from before the Reset are poison, and the epoch stamp
// makes using one panic deterministically.
//
// Reset panics if called during Run or while processes are still live: a
// failed run (deadlock, process panic) leaves parked processes behind, and
// reusing such a kernel would replay unrelated state into the next run. Only
// kernels whose last Run completed cleanly are resettable; drop the rest.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset during Run")
	}
	if len(k.procs) > 0 || k.blocked != 0 {
		panic("sim: Reset with live processes; only a cleanly finished kernel can be reset")
	}
	k.now = 0
	k.queue.reset()
	k.ring.head, k.ring.tail, k.ring.n = 0, 0, 0
	k.fused = nil
	k.failure = nil
	k.cbPanic = nil
	// Callback slots hold closures whose captures would otherwise keep the
	// previous run's garbage alive for the whole next lease.
	clear(k.cbs)
	k.cbs = k.cbs[:0]
	k.cbFree = k.cbFree[:0]
	clear(k.adds)
	k.adds = k.adds[:0]
	k.addFree = k.addFree[:0]
	k.arena.reset()
	for _, p := range k.pipes {
		p.free, p.totalBytes, p.busy, p.transfers = 0, 0, 0, 0
	}
	k.epoch++
}

// newCb stores fn in the callback table and returns its slot. Slots recycle
// LIFO so the mapping from schedule order to slot numbers is a pure function
// of the run, fresh or reused.
func (k *Kernel) newCb(fn func()) uint32 {
	if n := len(k.cbFree); n > 0 {
		i := k.cbFree[n-1]
		k.cbFree = k.cbFree[:n-1]
		k.cbs[i] = fn
		return i
	}
	k.cbs = append(k.cbs, fn)
	return uint32(len(k.cbs) - 1)
}

// runCb runs a callback slot, releasing it first so the table holds no
// reference while (and after) the callback executes.
func (k *Kernel) runCb(i uint32) {
	fn := k.cbs[i]
	k.cbs[i] = nil
	k.cbFree = append(k.cbFree, i)
	fn()
}

// procAt resolves a dense process index.
func (k *Kernel) procAt(i uint32) *Proc { return k.arena.procAt(i) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a broken cost model rather than a recoverable state.
func (k *Kernel) At(t Time, fn func()) {
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
		}
		k.ring.push(entry{kind: eFn, idx: k.newCb(fn)})
		return
	}
	k.queue.push(t, entry{kind: eFn, idx: k.newCb(fn)})
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// addAt is one scheduled counter add: the pointer-lean form of
// At(t, func() { c.Add(n) }), stored in the kernel's add table so the hot
// DMA-completion paths schedule no closures.
type addAt struct {
	c *Counter
	n int64
}

// AddAt schedules c.Add(n) at absolute virtual time t, occupying exactly the
// (time, seq) position the equivalent At callback would. Like At, scheduling
// in the past panics; like every counter operation, a handle from before a
// Reset panics at registration.
//
//bgplint:hot
func (k *Kernel) AddAt(t Time, c *Counter, n int64) {
	c.check()
	i := k.newAdd(c, n)
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
		}
		k.ring.push(entry{kind: eAdd, idx: i})
		return
	}
	k.queue.push(t, entry{kind: eAdd, idx: i})
}

// newAdd carves an add-table slot (LIFO recycling, like newCb).
//
//bgplint:hot
func (k *Kernel) newAdd(c *Counter, n int64) uint32 {
	if m := len(k.addFree); m > 0 {
		i := k.addFree[m-1]
		k.addFree = k.addFree[:m-1]
		k.adds[i] = addAt{c, n}
		return i
	}
	k.adds = append(k.adds, addAt{c, n})
	return uint32(len(k.adds) - 1)
}

// runAdd applies a scheduled add, releasing its table slot first (mirroring
// runCb's discipline).
//
//bgplint:hot
func (k *Kernel) runAdd(i uint32) {
	a := k.adds[i]
	k.adds[i] = addAt{}
	k.addFree = append(k.addFree, i)
	a.c.Add(a.n)
}

// schedProc schedules p's next resume at absolute time t (>= now; timed
// sleeps clamp negative durations before calling).
//
//bgplint:hot
func (k *Kernel) schedProc(t Time, p *Proc) {
	if t <= k.now {
		k.ring.push(entry{kind: eResume, idx: p.self})
		return
	}
	k.queue.push(t, entry{kind: eResume, idx: p.self})
}

// schedStep schedules the continuation of p's plan (see plan.go) at absolute
// time t, using the same now-vs-future placement rule as schedProc so the
// entry lands exactly where the process's own resume would have.
//
//bgplint:hot
func (k *Kernel) schedStep(t Time, p *Proc) {
	if t <= k.now {
		k.ring.push(entry{kind: eStep, idx: p.self})
		return
	}
	k.queue.push(t, entry{kind: eStep, idx: p.self})
}

// wake makes a released waiter runnable at the current instant. For process
// waiters the blocked bookkeeping happens here, eagerly, so the queued entry
// is a bare resume that any token holder may execute; the caller (Event.Fire,
// Counter.release) always holds the token.
//
//bgplint:hot
func (k *Kernel) wake(w entry) {
	if w.kind != eFn {
		p := k.procAt(w.idx)
		k.blocked--
		p.waitEv, p.waitC = nil, nil
	}
	k.ring.push(w)
}

// next drives the scheduler under the caller's virtual-CPU token: it pops
// entries in exact (time, seq) order, runs callbacks inline, advances the
// clock when the current instant is exhausted, and returns the first process
// resume it reaches. nil means no runnable work remains (queues drained, or
// the simulation failed). Both the scheduler loop (Run) and a yielding
// process (handoff) use this one decision sequence, so who holds the token
// never changes what executes next.
//
//bgplint:hot
func (k *Kernel) next() *Proc {
	for k.failure == nil {
		// Queue entries at the current instant predate (in seq order) every
		// ring entry, so they run first; otherwise the FIFO ring drains
		// before the clock may advance to the queue's next timestamp.
		var e entry
		if k.queue.nowPending() {
			e = k.queue.pop(k.now)
		} else if !k.ring.empty() {
			e = k.ring.pop()
		} else if t, ok := k.queue.peek(); ok {
			k.now = t
			e = k.queue.pop(t)
		} else {
			break
		}
		switch e.kind {
		case eResume:
			return k.procAt(e.idx)
		case eFn:
			k.runCb(e.idx)
		case eStep:
			k.procAt(e.idx).advance()
		case eCont:
			k.procAt(e.idx).runCont()
		case eProg:
			k.procAt(e.idx).runProg()
		case eAdd:
			k.runAdd(e.idx)
		}
		// A callback that completed a process's plan resumes that process
		// immediately: its slice belongs at this exact queue position.
		if p := k.fused; p != nil {
			k.fused = nil
			return p
		}
	}
	return nil
}

// handoff is next() as invoked by a process (or an exiting pool worker)
// still holding the token: one rendezvous hands the CPU straight to the
// returned process, and the scheduler goroutine stays parked. Disabled in
// noHandoff mode. A callback panic is captured here rather than allowed to
// unwind simulated process code (whose defers must not run for an unrelated
// callback's bug): the simulation fails, the token returns to the scheduler,
// and Run re-panics with the original value.
func (k *Kernel) handoff() (q *Proc) {
	if k.noHandoff || k.failure != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			k.cbPanic = r
			k.fail(fmt.Errorf("sim: callback panicked: %v", r))
			q = nil
		}
	}()
	return k.next()
}

// fail records a fatal simulation error (process panic).
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// Run executes events until the queues drain or a process fails. It returns
// an error if a process panicked or if processes remain blocked with no
// pending events (virtual deadlock). Callback panics re-panic out of Run,
// as they do when the scheduler loop runs the callback itself.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	for {
		p := k.next()
		if p == nil {
			break
		}
		// Hand the virtual CPU to the process and park until some process —
		// not necessarily this one, if the token travelled a direct-handoff
		// chain — returns it.
		p.gate <- struct{}{}
		<-k.sched
		if k.failure != nil {
			break
		}
	}
	if k.failure != nil {
		if r := k.cbPanic; r != nil {
			k.cbPanic = nil
			panic(r)
		}
		return k.failure
	}
	if k.blocked > 0 {
		return k.deadlockError()
	}
	return nil
}

func (k *Kernel) deadlockError() error {
	// Sort the report so the error text does not depend on discovery order
	// (the determinism tests compare failure output across kernel modes).
	var blocked []string
	for _, pi := range k.procs {
		p := k.procAt(pi)
		if what := p.blockedOn(); what != "" {
			blocked = append(blocked, fmt.Sprintf("%s(%s)", p.Name(), what))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("sim: deadlock, blocked processes: %s", strings.Join(blocked, " "))
}

// runRing is a growable FIFO ring buffer of same-instant entries. Push and
// pop are a mask and an index increment; growth doubles and relinks the two
// halves so FIFO order is preserved. Entries are pointer-free, so popped
// slots need no clearing and the buffer is invisible to the GC scanner.
type runRing struct {
	buf  []entry
	head int
	tail int // one past the last element; buf is full when len == cap-1 slots used
	n    int
}

func (r *runRing) empty() bool { return r.n == 0 }

//bgplint:hot
func (r *runRing) push(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = e
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
}

// pushBatch appends a slice of entries in order with a single capacity check
// and at most two copies (wraparound). Event fan-out and multi-waiter counter
// crossings use it to wake N parties as one batch instead of N pushes.
//
//bgplint:hot
func (r *runRing) pushBatch(es []entry) {
	for r.n+len(es) > len(r.buf) {
		r.grow()
	}
	m := copy(r.buf[r.tail:], es)
	copy(r.buf, es[m:])
	r.tail = (r.tail + len(es)) & (len(r.buf) - 1)
	r.n += len(es)
}

//bgplint:hot
func (r *runRing) pop() entry {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *runRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	next := make([]entry, size)
	m := copy(next, r.buf[r.head:])
	copy(next[m:], r.buf[:r.head])
	r.buf, r.head, r.tail = next, 0, r.n
}

// timed is one pending future entry: its firing time and the entry itself.
// Pointer-free, so a megabyte-scale queue contributes nothing to a GC mark
// phase (the bucket slice headers are the only words scanned).
type timed struct {
	t   Time
	ent entry
}

// eventQueue is a monotone radix queue (a radix heap in the sense of Ahuja,
// Mehlhorn, Orlin and Tarjan) of future entries. It relies on the
// scheduler's monotonicity: every push is at or after last, the time of the
// most recent pop, because the kernel only pushes strictly after its clock
// and the clock is exactly last after any pop.
//
// An entry at time t lives in bucket bits.Len64(t ^ last): bucket 0 holds
// entries at exactly last, and bucket i > 0 holds entries that agree with
// last above bit i-1 and have that bit set, so every bucket covers a time
// range strictly below the next non-empty one. Popping drains bucket 0
// FIFO; when it is empty, the lowest non-empty bucket's minimum becomes the
// new last and that bucket is redistributed into the (empty) buckets below
// it. Entries of higher buckets still agree with the new last above their
// own differing bit, so their placement stays valid and they never move
// until their range becomes the lowest.
//
// Order: all entries with the same time always sit in the same bucket, and
// every operation keeps their relative order — a push appends, and a
// redistribution keeps a bucket's entries in order, compacting those at the
// new last in place and appending the rest to buckets that are empty at
// that moment. Equal-time entries therefore pop in push order, so the
// queue yields the exact (time, push sequence) order without
// storing a sequence number.
//
// Timestamps are non-negative int64, so t ^ last < 2^63 and buckets 0..63
// cover every placement; the array has room for bits.Len64's full range so
// indexing by it needs no bounds check. Mask bit i marks bucket i > 0 as
// non-empty.
type eventQueue struct {
	last Time
	head int // drain cursor into b[0]
	mask uint64
	b    [65][]timed
}

// nowPending reports whether entries remain at the queue's current instant
// (bucket 0).
func (q *eventQueue) nowPending() bool { return q.head < len(q.b[0]) }

// push schedules ent at t, which must be >= last.
//
//bgplint:hot
func (q *eventQueue) push(t Time, ent entry) {
	i := bits.Len64(uint64(t ^ q.last))
	q.b[i] = append(q.b[i], timed{t, ent})
	q.mask |= 1 << i &^ 1
}

// peek returns the earliest pending time without moving last. ok is false
// when the queue is empty.
//
//bgplint:hot
func (q *eventQueue) peek() (t Time, ok bool) {
	if q.head < len(q.b[0]) {
		return q.last, true
	}
	if q.mask == 0 {
		return 0, false
	}
	b := q.b[bits.TrailingZeros64(q.mask)]
	t = b[0].t
	for _, x := range b[1:] {
		t = min(t, x.t)
	}
	return t, true
}

// pop removes and returns the first entry at t, which must be the queue's
// minimum: the current instant while nowPending, else peek's result. Taking
// it from the caller means the minimum is found once per clock advance.
//
//bgplint:hot
func (q *eventQueue) pop(t Time) entry {
	if q.head == len(q.b[0]) {
		q.last = t
		i := bits.TrailingZeros64(q.mask)
		b := q.b[i]
		q.mask &^= 1 << i
		if len(b) == 1 {
			// A lone entry is the minimum itself: no redistribution.
			q.b[i] = b[:0]
			return b[0].ent
		}
		// Redistribute into the empty buckets below i. Entries at t are
		// compacted in place and the array becomes bucket 0, so a
		// same-instant batch is scanned, not copied.
		k := 0
		for k < len(b) && b[k].t == t {
			k++
		}
		for _, x := range b[k:] {
			if x.t == t {
				b[k] = x
				k++
				continue
			}
			j := bits.Len64(uint64(x.t ^ t))
			q.b[j] = append(q.b[j], x)
			q.mask |= 1 << j
		}
		q.b[0], q.b[i] = b[:k], q.b[0][:0]
	}
	b0 := q.b[0]
	ent := b0[q.head].ent
	if q.head++; q.head == len(b0) {
		q.b[0], q.head = b0[:0], 0
	}
	return ent
}

// drain appends every pending entry to dst in exact pop order and returns
// the extended slice, leaving the queue untouched. Buckets cover increasing
// disjoint ranges, so a stable sort of each bucket by time is the order.
func (q *eventQueue) drain(dst []timed) []timed {
	dst = append(dst, q.b[0][q.head:]...)
	for m := q.mask; m != 0; m &= m - 1 {
		n := len(dst)
		dst = append(dst, q.b[bits.TrailingZeros64(m)]...)
		slices.SortStableFunc(dst[n:], func(a, b timed) int { return cmp.Compare(a.t, b.t) })
	}
	return dst
}

// reset empties the queue for kernel reuse, keeping bucket capacity.
func (q *eventQueue) reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.last, q.head, q.mask = 0, 0, 0
}

// shiftAll moves every pending entry and last by d: the uniform time shift
// of a steady-state Forward. Bucket placement is not shift-invariant, so the
// entries are re-pushed in drain order, which keeps their relative order.
func (q *eventQueue) shiftAll(d Time) {
	pending := q.drain(nil)
	last := q.last
	q.reset()
	q.last = last + d
	for _, x := range pending {
		q.push(x.t+d, x.ent)
	}
}
