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
// kind selects the dispatch and idx names the target: a slot in the shard's
// callback table (eFn), hook table (eHook), add table (eAdd), or a process's
// dense arena index (everything else).
//
// In a waiter list (Event.waiters, Counter.waiters) every kind other than eFn
// identifies a parked process, so Shard.wake and the batch-wake loops do the
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
	eHook         // run hook-table slot idx: a delivered cross-shard PostHook
)

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; create kernels with New.
//
// All scheduling state lives in shards (see shard.go). A fresh kernel has
// exactly one — the root shard, embedded by value so the serial path pays no
// extra indirection — and every Kernel-level scheduling method delegates to
// it. NewShard/NewHubShard partition the simulation for parallel conservative
// epochs (see epoch.go); with more than one shard Run becomes the epoch
// controller instead of the single-queue loop.
type Kernel struct {
	s0     Shard
	shards []*Shard

	// lookahead is the conservative-PDES window width: the minimum virtual
	// latency of any cross-shard interaction. Cross-shard posts destined for
	// a peer shard must land at least this far in the future (see
	// Shard.postTo); posts into a hub shard only need t >= now, because hubs
	// run strictly after the peer phase within each window.
	lookahead Time

	running bool

	// noHandoff forces every yield through the shard's scheduler loop (the
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

	// noShard runs a sharded kernel's epochs sequentially on the calling
	// goroutine — same windows, same mailbox merges, same committed order,
	// no worker goroutines. It is the reference vehicle the determinism
	// stress tests compare the parallel execution against, mirroring
	// noHandoff/noFuse/noProgram.
	noShard bool

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

	// mergeBuf is the epoch controller's reusable mailbox merge scratch.
	mergeBuf []xmsg

	// fpFree holds the fingerprint slots a finished steady-state detector
	// released for the next one (Steady.Release); all nil until then.
	fpFree [maxSteadyPeriod + 1]*FP
}

// New returns a kernel with the clock at zero and a single root shard.
func New() *Kernel {
	k := &Kernel{}
	k.s0.init(k, 0, false)
	k.shards = append(k.shards, &k.s0)
	return k
}

// Now returns the current virtual time: the root shard's clock, or — on a
// sharded kernel, where shards advance independently inside a window — the
// maximum over all shards (the horizon every committed event is behind).
func (k *Kernel) Now() Time {
	if len(k.shards) == 1 {
		return k.s0.now
	}
	var t Time
	for _, sh := range k.shards {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// SetNoProgram toggles the goroutine-backed reference mode for SpawnProgram
// (see program.go). It must be called before any process is spawned; the two
// modes produce bit-identical event orderings, so this exists for the
// determinism stress tests and the program-vs-reference benchmark runs.
func (k *Kernel) SetNoProgram(v bool) { k.noProgram = v }

// SetNoShard toggles the sequential-epoch reference vehicle for sharded
// kernels (see epoch.go). It may be set any time before Run; both vehicles
// execute the identical window/mailbox algorithm, so every trace, failure,
// and deadlock report is bit-identical between them.
func (k *Kernel) SetNoShard(v bool) { k.noShard = v }

// SetNoExtrap toggles the full-execution reference vehicle for the steady-
// state extrapolation detector (steady.go): captures on a noExtrap kernel
// refuse, so every iteration executes. Extrapolated and full runs are
// bit-identical by construction; the flag exists for the equivalence tests
// and the -noextrap benchmark runs.
func (k *Kernel) SetNoExtrap(v bool) { k.noExtrap = v }

// NoExtrap reports whether steady-state extrapolation is disabled.
func (k *Kernel) NoExtrap() bool { return k.noExtrap }

// SetLookahead declares the conservative window width for sharded runs: no
// cross-shard interaction may take effect sooner than this after it is
// posted. The machine layer computes it as the minimum cross-node latency of
// the networks in play. Sharded Run panics without a positive lookahead.
func (k *Kernel) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: non-positive lookahead")
	}
	k.lookahead = d
}

// Lookahead returns the configured conservative window width.
func (k *Kernel) Lookahead() Time { return k.lookahead }

// Sharded reports whether the kernel has more than one shard.
func (k *Kernel) Sharded() bool { return len(k.shards) > 1 }

// ShardCount returns the number of shards (1 for a fresh kernel).
func (k *Kernel) ShardCount() int { return len(k.shards) }

// RootShard returns the kernel's always-present shard 0, the one every
// Kernel-level scheduling method operates on.
func (k *Kernel) RootShard() *Shard { return &k.s0 }

// Reset returns the kernel to its post-New state while keeping every
// allocation it has accumulated: arena slabs, queue and ring capacity, the
// callback tables, grown waiter lists, the shard partition, and the pipes
// created on it. Pipes survive with their identity intact (their reservation
// state rewinds to zero); events, counters, and processes do not — their
// slab slots will be recarved, so handles from before the Reset are poison,
// and the epoch stamp makes using one panic deterministically.
//
// Reset panics if called during Run or while processes are still live: a
// failed run (deadlock, process panic) leaves parked processes behind, and
// reusing such a kernel would replay unrelated state into the next run. Only
// kernels whose last Run completed cleanly are resettable; drop the rest.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset during Run")
	}
	for _, sh := range k.shards {
		if len(sh.procs) > 0 || sh.blocked != 0 {
			panic("sim: Reset with live processes; only a cleanly finished kernel can be reset")
		}
	}
	for _, sh := range k.shards {
		sh.reset()
	}
	for _, p := range k.pipes {
		p.free, p.totalBytes, p.busy, p.transfers = 0, 0, 0, 0
	}
	k.epoch++
}

// At schedules fn to run on the root shard at absolute virtual time t.
// Scheduling in the past panics: it indicates a broken cost model rather
// than a recoverable state. Code running inside a peer shard of a sharded
// kernel must use Shard.At (or the object-routed AddAt) instead.
func (k *Kernel) At(t Time, fn func()) { k.s0.At(t, fn) }

// After schedules fn to run d after the root shard's current time.
func (k *Kernel) After(d Time, fn func()) { k.s0.After(d, fn) }

// addAt is one scheduled counter add: the pointer-lean form of
// At(t, func() { c.Add(n) }), stored in the shard's add table so the hot
// DMA-completion paths schedule no closures.
type addAt struct {
	c *Counter
	n int64
}

// AddAt schedules c.Add(n) at absolute virtual time t, occupying exactly the
// (time, seq) position the equivalent At callback would. The entry lands on
// the counter's own shard, which on a sharded kernel must also be the
// calling shard; cross-shard adds go through Shard.PostAdd. Like At,
// scheduling in the past panics; like every counter operation, a handle from
// before a Reset panics at registration.
//
//bgplint:hot
func (k *Kernel) AddAt(t Time, c *Counter, n int64) { c.sh.AddAt(t, c, n) }

// Run executes events until the queues drain or a process fails. It returns
// an error if a process panicked or if processes remain blocked with no
// pending events (virtual deadlock). On a sharded kernel Run is the
// conservative epoch controller (epoch.go).
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	if len(k.shards) > 1 {
		return k.runSharded()
	}
	s := &k.s0
	s.runWindow(maxWindow)
	if err := k.checkFailure(); err != nil {
		return err
	}
	if s.blocked > 0 {
		return k.deadlockError()
	}
	return nil
}

// checkFailure surfaces the first recorded failure in shard order: callback
// panics re-panic (they must crash Run, as they do when the scheduler loop
// runs the callback), and process panics return as errors. Shard order makes
// the choice deterministic when a parallel phase fails in several shards at
// once.
func (k *Kernel) checkFailure() error {
	for _, sh := range k.shards {
		if sh.failure != nil {
			if r := sh.cbPanic; r != nil {
				sh.cbPanic = nil
				panic(r)
			}
			return sh.failure
		}
	}
	return nil
}

func (k *Kernel) deadlockError() error {
	// Sort the report so the error text depends neither on discovery order
	// nor on the shard partition (determinism tests compare failure output
	// across all kernel modes, sharded included).
	var blocked []string
	for _, sh := range k.shards {
		for _, pi := range sh.procs {
			p := sh.procAt(pi)
			if what := p.blockedOn(); what != "" {
				blocked = append(blocked, fmt.Sprintf("%s(%s)", p.Name(), what))
			}
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
// most recent pop, because the shard only pushes strictly after its clock
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
// queue yields the exact per-shard (time, push sequence) order without
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

// peek returns the earliest pending time without moving last: a sharded
// window that stops at its bound may later receive mail below the peeked
// minimum. ok is false when the queue is empty.
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
