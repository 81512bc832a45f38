package sim

import (
	"fmt"
	"runtime/debug"
	"strconv"
)

// Proc is a simulated process: a coroutine backed by a pooled goroutine
// (see pool.go) and scheduled by its owning kernel. Exactly one process body
// executes at a time per kernel, so process code may freely touch the
// simulation state without locking. A process consumes virtual time only
// through Sleep, Wait, WaitGE, and Transfer.
type Proc struct {
	k    *Kernel
	name string
	// nid is the flyweight name suffix (see Pipe.nid): SpawnIdx processes
	// share one prefix string ("rank") and render "rank<nid>" lazily in
	// Name(), so a million-rank world formats no per-process name unless a
	// failure actually reports one. -1 for plainly named processes.
	nid int32

	// self is the process's dense arena index (arena.go): the value queue
	// entries carry instead of a *Proc, and stable for the kernel's lifetime.
	// epoch stamps the lease the process belongs to; like events and
	// counters, a Proc handle must not be used across Kernel.Reset.
	self  uint32
	epoch uint32

	// gate receives the virtual-CPU token: the kernel (or a directly
	// handing-off peer process) sends to resume the process. The channel is
	// owned by the backing pool worker and outlives the Proc; the Proc
	// itself is a single-use handle, so no per-spawn state can leak across
	// pool reuses. nil for inline program processes.
	gate chan struct{}

	// Blocked-on state for deadlock reporting. At most one is non-nil; the
	// reason string is built lazily only when a deadlock is actually
	// reported, keeping fmt off the wait hot path.
	waitEv *Event
	waitC  *Counter
	waitGE int64

	idx int // position in k.procs, for O(1) removal on exit

	// plan is the reusable fused-step buffer (see plan.go). Its continuation
	// is scheduled as an eStep entry naming self — no pre-bound closure.
	plan Plan

	// Program-mode state (see program.go). inline marks a process with no
	// backing goroutine: its continuations run as queue callbacks (eCont and
	// eProg entries naming self). cont holds the continuation pending behind
	// the current sleep, wait, or plan; armed records that a resume is
	// pending somewhere in the queues or waiter lists, so the activation
	// wrapper can tell "parked" from "finished".
	inline bool
	armed  bool
	cont   func()

	// fpGen/fpID intern this process into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// process is already labelled fpID; any other value means unseen. The
	// stamp lives on the process so a rack-scale capture interns millions of
	// processes with two word writes instead of a map insert.
	fpGen uint64
	fpID  uint32
}

// check panics when the handle predates the kernel's current epoch: its slab
// slot belongs to the next lease now (or will shortly).
func (p *Proc) check() {
	if p.epoch != p.k.epoch {
		panic("sim: process handle (" + p.Name() + ") used across Kernel.Reset")
	}
}

// procPanicError formats a panic escaping process code — a process body or a
// fused plan step — as the simulation failure Run reports.
func procPanicError(name string, r any) error {
	return fmt.Errorf("sim: process %s panicked: %v\n%s", name, r, debug.Stack())
}

// Spawn creates a process running fn and schedules its first execution at
// the current virtual time. fn runs to completion unless it panics, which
// aborts the whole simulation with an error from Kernel.Run. The backing
// goroutine comes from the shared worker pool, so repeated Kernel instances
// reuse parked goroutines (and their grown stacks) instead of spawning
// fresh ones.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnIdx(name, -1, fn)
}

// SpawnIdx is Spawn for indexed process families: the process renders its
// name lazily as "<prefix><id>" (id >= 0), so spawning a million ranks
// formats no name strings. Scheduling is identical to Spawn.
func (k *Kernel) SpawnIdx(prefix string, id int32, fn func(p *Proc)) *Proc {
	p := k.carveProc(prefix, id)
	w := getWorker()
	p.gate = w.gate
	w.p, w.fn = p, fn
	p.idx = len(k.procs)
	k.procs = append(k.procs, p.self)
	k.ring.push(entry{kind: eResume, idx: p.self})
	return p
}

// carveProc carves a process slot from the kernel's arena and reinitializes
// every field a previous lease may have left behind (slots are reused after
// Kernel.Reset). The program frame is cleared in resetFrame (program.go),
// the one file allowed to touch those fields; the plan keeps its step-buffer
// capacity.
func (k *Kernel) carveProc(name string, nid int32) *Proc {
	p, self := k.arena.newProc()
	p.k, p.name, p.nid = k, name, nid
	p.self, p.epoch = self, k.epoch
	p.gate = nil
	p.waitEv, p.waitC, p.waitGE = nil, nil, 0
	p.plan.p = p
	p.plan.steps = p.plan.steps[:0]
	p.plan.i = 0
	p.resetFrame()
	return p
}

// exec runs the process body on its pool worker, converting panics into a
// simulation failure and dropping the finished process from the deadlock-
// report set. The worker still holds the kernel's virtual-CPU token
// throughout, so the kernel's state is ours to touch; the token is passed on
// by the worker loop immediately after exec returns.
func (p *Proc) exec(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			p.k.fail(procPanicError(p.Name(), r))
		}
		p.unregister()
	}()
	fn(p)
}

// unregister drops a finished process from the deadlock-report set: the
// goroutine body's exit (exec) and an inline program's last continuation
// (program.go) both end here.
func (p *Proc) unregister() {
	k := p.k
	last := len(k.procs) - 1
	moved := k.procs[last]
	k.procs[p.idx] = moved
	k.procAt(moved).idx = p.idx
	k.procs = k.procs[:last]
}

// yield releases the virtual CPU and blocks the goroutine until the next
// resume. The yielding process first drives the kernel's scheduler itself
// (handoff): callbacks due before the next process resume run right here,
// the clock advances if needed, and the token then goes straight to the next
// runnable process — one rendezvous, scheduler goroutine not involved. If
// that process is this one (e.g. a Sleep(0) queued behind nothing), yield
// keeps the CPU and returns immediately. Only when no process is runnable
// (queues drained, noHandoff mode, or failure) does the token return to the
// kernel's scheduler loop.
func (p *Proc) yield() {
	if p.inline {
		panic("sim: blocking primitive called on program process " + p.Name())
	}
	q := p.k.handoff()
	if q == p {
		return
	}
	if q != nil {
		q.gate <- struct{}{}
	} else {
		p.k.sched <- struct{}{}
	}
	<-p.gate
}

// blockedOn describes what the process is waiting on, or "" if it is not
// blocked. Used only for deadlock reports.
func (p *Proc) blockedOn() string {
	switch {
	case p.waitEv != nil:
		return "event:" + p.waitEv.name
	case p.waitC != nil:
		return fmt.Sprintf("counter:%s>=%d", p.waitC.name, p.waitGE)
	}
	return ""
}

// Name returns the process name given at Spawn, or "<prefix><id>" for a
// SpawnIdx process (formatted on demand; see the nid field).
func (p *Proc) Name() string {
	if p.nid < 0 {
		return p.name
	}
	return p.name + strconv.Itoa(int(p.nid))
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep advances the process by d of virtual time. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d Time) {
	p.check()
	if d < 0 {
		d = 0
	}
	p.k.schedProc(p.k.now+d, p)
	p.yield()
}

// SleepUntil blocks the process until absolute virtual time t. Times in the
// past return immediately.
func (p *Proc) SleepUntil(t Time) {
	p.check()
	if t <= p.k.now {
		return
	}
	p.k.schedProc(t, p)
	p.yield()
}

// Wait blocks the process until ev fires. If ev has already fired it returns
// immediately without consuming virtual time.
func (p *Proc) Wait(ev *Event) {
	p.check()
	ev.check()
	if ev.fired {
		return
	}
	p.waitEv = ev
	p.k.blocked++
	ev.waiters = append(ev.waiters, entry{kind: eResume, idx: p.self})
	p.yield()
}

// WaitGE blocks the process until c reaches at least v.
func (p *Proc) WaitGE(c *Counter, v int64) {
	p.check()
	c.check()
	if c.v >= v {
		return
	}
	p.waitC, p.waitGE = c, v
	p.k.blocked++
	c.wait(v, entry{kind: eResume, idx: p.self})
	p.yield()
}

// Transfer reserves n bytes on pipe and sleeps until the transfer (including
// the pipe's latency) completes. It returns the completion time.
func (p *Proc) Transfer(pipe *Pipe, n int) Time {
	done := pipe.Reserve(n)
	p.SleepUntil(done)
	return done
}
