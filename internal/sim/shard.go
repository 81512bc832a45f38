// Shards: the kernel's scheduling state, partitioned for parallel
// conservative epochs.
//
// A Shard owns everything the serial kernel used to own globally: the clock,
// the radix event queue, the same-instant run ring, the callback/add/hook
// entry tables, the process registry, and an arena. Every Event, Counter,
// Pipe, and Proc belongs to exactly one shard, and all of a shard's entries
// execute under a single virtual-CPU token, so intra-shard code is exactly
// as lock-free and deterministic as the serial kernel — a fresh kernel IS
// one shard (Kernel.s0), and the serial path runs unchanged through it.
//
// Cross-shard effects never touch another shard's structures directly: they
// are buffered into per-(src,dst) mailbox lanes (Post*, below) and merged at
// window boundaries by the epoch controller (epoch.go) in a deterministic
// (time, source shard, lane position) order. The conservative contract is
// enforced at post time: a message into a peer shard must land at least one
// lookahead after the sender's clock, so it can never arrive inside a window
// the destination is already executing.
//
// This file is a sanctioned goroutine launch site for the bgplint
// rawgoroutine rule: the shard window workers launched in startWorker only
// ever execute simulation code inside runWindow, between the controller's
// start/done channel rendezvous — each shard's state keeps a single-threaded
// happens-before chain through those channels, and no simulation state is
// shared between concurrently running shards except the mailbox lanes, which
// only the controller reads (after the rendezvous).
package sim

import "fmt"

// maxWindow is the open window bound of an unsharded run: no entry is ever
// scheduled this late, so bounded and unbounded execution share one loop.
const maxWindow = Time(1) << 62

// Shard is one partition of a kernel's scheduling state. A fresh kernel has
// exactly one (the root shard); NewShard/NewHubShard add more. All creation
// and scheduling methods mirror the Kernel-level API, which simply delegates
// to the root shard.
type Shard struct {
	k   *Kernel
	id  int32
	hub bool

	now Time
	// wend bounds the executing window: next() stops (leaving the clock put)
	// instead of advancing to an entry at or beyond it. maxWindow outside
	// sharded runs.
	wend  Time
	queue eventQueue
	ring  runRing

	// sched returns the virtual CPU to the shard's scheduler loop. Whichever
	// process ends a direct-handoff chain sends here; runWindow receives once
	// per process resume it initiated.
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

	// hooks is the delivered-post table: an eHook entry names a slot holding
	// a (handler, a, b) triple from a cross-shard PostHook — the pointer-lean
	// path for high-volume cross-shard traffic (e.g. one post per broadcast
	// chunk per node). Slots recycle LIFO like the other tables.
	hooks    []postHook
	hookFree []uint32

	// procs lists every live process by dense arena index; each tracks its
	// own registry position (Proc.idx) for O(1) removal. blocked counts
	// processes currently waiting on an Event or Counter threshold (not a
	// timed sleep). If all events drain everywhere while blocked > 0 the
	// simulation is deadlocked.
	procs   []uint32
	blocked int

	failure error

	// cbPanic holds the value of a callback panic captured on a process
	// goroutine (see handoff); Run re-panics with it so callback panics
	// crash Run exactly as they do when the scheduler goroutine runs them.
	cbPanic any

	// arena holds the shard's slab allocator for events, counters, and
	// processes (see arena.go). Everything carved from it lives exactly as
	// long as the kernel — or until Reset rewinds it.
	arena arena

	// out holds the outgoing mailbox lanes, indexed by destination shard id.
	// Lane order is the deterministic within-(src,dst) tiebreak of the epoch
	// merge; only the owning shard appends (during its window) and only the
	// controller drains (between windows).
	out [][]xmsg

	// start/done connect the shard to its window worker goroutine during a
	// parallel sharded Run; nil otherwise.
	start chan Time
	done  chan struct{}
}

func (sh *Shard) init(k *Kernel, id int32, hub bool) {
	sh.k = k
	sh.id = id
	sh.hub = hub
	sh.wend = maxWindow
	sh.sched = make(chan struct{})
}

// NewShard adds a peer shard: a partition that executes windows in parallel
// with every other peer shard. Shards must be created before the first Run;
// the partition persists across Reset.
func (k *Kernel) NewShard() *Shard { return k.addShard(false) }

// NewHubShard adds a hub shard: a partition that executes its window after
// every peer shard has finished theirs, within the same epoch. Hubs model
// globally shared resources (the collective-network channel, the barrier
// network): because they run strictly later in the epoch, peer shards may
// post into them at the current instant — no lookahead — and the hub still
// observes a complete, deterministically merged view of the window.
func (k *Kernel) NewHubShard() *Shard { return k.addShard(true) }

func (k *Kernel) addShard(hub bool) *Shard {
	if k.running {
		panic("sim: shard created during Run")
	}
	sh := &Shard{}
	sh.init(k, int32(len(k.shards)), hub)
	k.shards = append(k.shards, sh)
	return sh
}

// ID returns the shard's index in kernel creation order (the root shard
// is 0). Callers use it to key per-shard result slots.
func (sh *Shard) ID() int { return int(sh.id) }

// Hub reports whether the shard is a hub (runs after the peer phase).
func (sh *Shard) Hub() bool { return sh.hub }

// Kernel returns the owning kernel.
func (sh *Shard) Kernel() *Kernel { return sh.k }

// Now returns the shard's current virtual time.
func (sh *Shard) Now() Time { return sh.now }

// reset rewinds the shard for Kernel.Reset.
func (sh *Shard) reset() {
	sh.now = 0
	sh.wend = maxWindow
	sh.queue.reset()
	sh.ring.head, sh.ring.tail, sh.ring.n = 0, 0, 0
	sh.fused = nil
	sh.failure = nil
	sh.cbPanic = nil
	// Callback slots hold closures whose captures would otherwise keep the
	// previous run's garbage alive for the whole next lease.
	clear(sh.cbs)
	sh.cbs = sh.cbs[:0]
	sh.cbFree = sh.cbFree[:0]
	clear(sh.adds)
	sh.adds = sh.adds[:0]
	sh.addFree = sh.addFree[:0]
	clear(sh.hooks)
	sh.hooks = sh.hooks[:0]
	sh.hookFree = sh.hookFree[:0]
	for i := range sh.out {
		clear(sh.out[i])
		sh.out[i] = sh.out[i][:0]
	}
	sh.arena.reset()
}

// newCb stores fn in the callback table and returns its slot. Slots recycle
// LIFO so the mapping from schedule order to slot numbers is a pure function
// of the run, fresh or reused.
func (sh *Shard) newCb(fn func()) uint32 {
	if n := len(sh.cbFree); n > 0 {
		i := sh.cbFree[n-1]
		sh.cbFree = sh.cbFree[:n-1]
		sh.cbs[i] = fn
		return i
	}
	sh.cbs = append(sh.cbs, fn)
	return uint32(len(sh.cbs) - 1)
}

// runCb runs a callback slot, releasing it first so the table holds no
// reference while (and after) the callback executes.
func (sh *Shard) runCb(i uint32) {
	fn := sh.cbs[i]
	sh.cbs[i] = nil
	sh.cbFree = append(sh.cbFree, i)
	fn()
}

// procAt resolves a dense process index.
func (sh *Shard) procAt(i uint32) *Proc { return sh.arena.procAt(i) }

// At schedules fn to run on this shard at absolute virtual time t.
// Scheduling in the past panics: it indicates a broken cost model rather
// than a recoverable state.
func (sh *Shard) At(t Time, fn func()) {
	if t <= sh.now {
		if t < sh.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, sh.now))
		}
		sh.ring.push(entry{kind: eFn, idx: sh.newCb(fn)})
		return
	}
	sh.queue.push(t, entry{kind: eFn, idx: sh.newCb(fn)})
}

// After schedules fn to run d after the shard's current time.
func (sh *Shard) After(d Time, fn func()) { sh.At(sh.now+d, fn) }

// AddAt schedules c.Add(n) at absolute virtual time t, occupying exactly the
// (time, seq) position the equivalent At callback would. c must live on this
// shard; cross-shard adds go through PostAdd.
//
//bgplint:hot
func (sh *Shard) AddAt(t Time, c *Counter, n int64) {
	c.check()
	if c.sh != sh {
		panic("sim: AddAt on counter " + c.name + " of another shard; use PostAdd")
	}
	i := sh.newAdd(c, n)
	if t <= sh.now {
		if t < sh.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, sh.now))
		}
		sh.ring.push(entry{kind: eAdd, idx: i})
		return
	}
	sh.queue.push(t, entry{kind: eAdd, idx: i})
}

// newAdd carves an add-table slot (LIFO recycling, like newCb).
//
//bgplint:hot
func (sh *Shard) newAdd(c *Counter, n int64) uint32 {
	if m := len(sh.addFree); m > 0 {
		i := sh.addFree[m-1]
		sh.addFree = sh.addFree[:m-1]
		sh.adds[i] = addAt{c, n}
		return i
	}
	sh.adds = append(sh.adds, addAt{c, n})
	return uint32(len(sh.adds) - 1)
}

// runAdd applies a scheduled add, releasing its table slot first (mirroring
// runCb's discipline).
//
//bgplint:hot
func (sh *Shard) runAdd(i uint32) {
	a := sh.adds[i]
	sh.adds[i] = addAt{}
	sh.addFree = append(sh.addFree, i)
	a.c.Add(a.n)
}

// postHook is one delivered cross-shard PostHook: handler object plus two
// integer operands, so high-volume cross-shard traffic carries no closures.
type postHook struct {
	h    PostHandler
	a, b int64
}

// runHook dispatches a delivered PostHook, releasing its slot first.
//
//bgplint:hot
func (sh *Shard) runHook(i uint32) {
	hk := sh.hooks[i]
	sh.hooks[i] = postHook{}
	sh.hookFree = append(sh.hookFree, i)
	hk.h.RunPost(hk.a, hk.b)
}

// schedProc schedules p's next resume at absolute time t (>= now; timed
// sleeps clamp negative durations before calling).
//
//bgplint:hot
func (sh *Shard) schedProc(t Time, p *Proc) {
	if t <= sh.now {
		sh.ring.push(entry{kind: eResume, idx: p.self})
		return
	}
	sh.queue.push(t, entry{kind: eResume, idx: p.self})
}

// schedStep schedules the continuation of p's plan (see plan.go) at absolute
// time t, using the same now-vs-future placement rule as schedProc so the
// entry lands exactly where the process's own resume would have.
//
//bgplint:hot
func (sh *Shard) schedStep(t Time, p *Proc) {
	if t <= sh.now {
		sh.ring.push(entry{kind: eStep, idx: p.self})
		return
	}
	sh.queue.push(t, entry{kind: eStep, idx: p.self})
}

// wake makes a released waiter runnable at the current instant. For process
// waiters the blocked bookkeeping happens here, eagerly, so the queued entry
// is a bare resume that any token holder may execute; the caller (Event.Fire,
// Counter.release) always holds the token.
//
//bgplint:hot
func (sh *Shard) wake(w entry) {
	if w.kind != eFn {
		p := sh.procAt(w.idx)
		sh.blocked--
		p.waitEv, p.waitC = nil, nil
	}
	sh.ring.push(w)
}

// next drives the scheduler under the caller's virtual-CPU token: it pops
// entries in exact per-shard (time, seq) order, runs callbacks inline,
// advances the clock when the current instant is exhausted, and returns the
// first process resume it reaches. nil means no runnable work remains before
// the window bound (queues drained, or the simulation failed). Both the
// scheduler loop (runWindow) and a yielding process (handoff) use this one
// decision sequence, so who holds the token never changes what executes
// next.
//
//bgplint:hot
func (sh *Shard) next() *Proc {
	for sh.failure == nil {
		// Queue entries at the current instant predate (in seq order) every
		// ring entry, so they run first; otherwise the FIFO ring drains
		// before the clock may advance to the queue's next timestamp — and
		// never to or past the window bound.
		var e entry
		if sh.queue.nowPending() {
			e = sh.queue.pop(sh.now)
		} else if !sh.ring.empty() {
			e = sh.ring.pop()
		} else if t, ok := sh.queue.peek(); ok && t < sh.wend {
			sh.now = t
			e = sh.queue.pop(t)
		} else {
			break
		}
		switch e.kind {
		case eResume:
			return sh.procAt(e.idx)
		case eFn:
			sh.runCb(e.idx)
		case eStep:
			sh.procAt(e.idx).advance()
		case eCont:
			sh.procAt(e.idx).runCont()
		case eProg:
			sh.procAt(e.idx).runProg()
		case eAdd:
			sh.runAdd(e.idx)
		case eHook:
			sh.runHook(e.idx)
		}
		// A callback that completed a process's plan resumes that process
		// immediately: its slice belongs at this exact queue position.
		if p := sh.fused; p != nil {
			sh.fused = nil
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
func (sh *Shard) handoff() (q *Proc) {
	if sh.k.noHandoff || sh.failure != nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			sh.cbPanic = r
			sh.fail(fmt.Errorf("sim: callback panicked: %v", r))
			q = nil
		}
	}()
	return sh.next()
}

// fail records a fatal simulation error (process panic) on this shard.
func (sh *Shard) fail(err error) {
	if sh.failure == nil {
		sh.failure = err
	}
}

// runWindow executes the shard's entries strictly before bound under the
// caller's goroutine: the exact loop the serial kernel runs, with the queue
// stopping at the window edge. The shard's ring is empty and its clock is
// below bound when runWindow returns (unless the run failed).
func (sh *Shard) runWindow(bound Time) {
	sh.wend = bound
	for {
		p := sh.next()
		if p == nil {
			return
		}
		// Hand the virtual CPU to the process and park until some process —
		// not necessarily this one, if the token travelled a direct-handoff
		// chain — returns it.
		p.gate <- struct{}{}
		<-sh.sched
		if sh.failure != nil {
			return
		}
	}
}
