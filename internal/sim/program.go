// Program-mode processes: full-lifecycle resumable state machines executed
// by the kernel itself, with no backing goroutine.
//
// A Plan (plan.go) fuses the step chain behind one wait; the process still
// owns a goroutine and still pays a channel rendezvous every time that chain
// ends. A program goes the rest of the way: the whole process body is
// written in explicit-resume style — every blocking operation takes the rest
// of the body as a continuation — so parking is storing a func and resuming
// is an ordinary queue callback run inline under whichever goroutine holds
// the virtual-CPU token. A rank whose body is program-expressible never
// touches a channel, a pool worker, or the Go scheduler.
//
// Determinism: each operation here is a mechanical transcription of the
// blocking primitive it replaces and pushes exactly the queue entries that
// primitive would have pushed, at the same instants, in the same order:
//
//   - SleepThen schedules its continuation where Sleep would have scheduled
//     the process resume (always scheduling, even for zero durations);
//     SleepUntilThen and BusyThen keep the respective "already satisfied"
//     fast paths that return without scheduling.
//   - WaitThen/WaitGEThen append a waiter at the same list position Wait/
//     WaitGE would have; the fired/satisfied fast paths run the continuation
//     inline exactly where the blocking call would have returned without
//     yielding.
//   - WaitPlanThen/WaitGEPlanThen step the attached plan with the same
//     placement rules as Plan.advance, and a plan that exhausts on instant
//     steps calls the continuation at that exact queue position — the
//     program analog of Kernel.fused.
//
// Callbacks run inline inside Kernel.next and the ring drains in FIFO order,
// so a continuation executing at its pop position is observationally
// identical to a goroutine resuming at that position: both run their slice
// of process code to the next park before the kernel pops another entry.
// DESIGN.md §11 gives the full argument.
//
// The queue entries a parked program leaves behind are pointer-free: an
// eCont (continuation) or eProg (plan step) entry names the process by its
// arena index, and the kernel dispatches to runCont/runProg below — the
// per-spawn trampoline closures those entries used to carry are gone.
//
// The same operations also run on ordinary goroutine processes (each has a
// blocking fallback that calls the continuation synchronously), which is how
// the noProgram reference mode executes the identical collective bodies —
// there is exactly one transcription of each protocol, not two.
//
// Contract for program bodies: operations may only be called from the
// process's own body or continuations (never from unrelated callbacks), and
// an operation that parks or schedules must be the last thing its caller
// does — the continuation carries the rest. Violations panic.
package sim

// SpawnProgram creates a process whose body is written in explicit-resume
// style and schedules its first execution at the current virtual time, at
// the same queue position Spawn would have used. In program mode (default)
// the process is inline: no goroutine is attached and the kernel runs the
// body and every continuation as queue callbacks. In noProgram reference
// mode the identical body runs on an ordinary goroutine process, with each
// operation falling back to its blocking primitive.
func (k *Kernel) SpawnProgram(name string, fn func(p *Proc)) *Proc {
	return k.SpawnProgramIdx(name, -1, fn)
}

// SpawnProgramIdx is SpawnProgram for indexed process families (see
// Kernel.SpawnIdx): the name renders lazily as "<prefix><id>".
func (k *Kernel) SpawnProgramIdx(prefix string, id int32, fn func(p *Proc)) *Proc {
	if k.noProgram {
		return k.SpawnIdx(prefix, id, fn)
	}
	p := k.carveProc(prefix, id)
	p.inline = true
	p.idx = len(k.procs)
	k.procs = append(k.procs, p.self)
	p.cont = func() { fn(p) }
	p.armed = true
	k.ring.push(entry{kind: eCont, idx: p.self})
	return p
}

// resetFrame clears the program frame of a freshly carved process slot (see
// Kernel.carveProc); a slot reused after Reset may hold a finished — or, on
// a dropped failed kernel, parked — program's state.
func (p *Proc) resetFrame() {
	p.inline, p.armed = false, false
	p.cont = nil
}

// Inline reports whether the process runs without a goroutine (program
// mode). Collective code does not branch on this — the operations below are
// mode-agnostic — but spawn-time setup occasionally wants to know.
func (p *Proc) Inline() bool { return p.inline }

// progRecover converts a panic in program code into the same simulation
// failure a goroutine process body panic produces.
func (p *Proc) progRecover() {
	if r := recover(); r != nil {
		p.k.fail(procPanicError(p.Name(), r))
	}
}

// runCont is the kernel's dispatch for an eCont entry: disarm, run the
// pending continuation, and retire the program if it parked nowhere new.
//
//bgplint:hot
func (p *Proc) runCont() {
	defer p.progRecover()
	p.armed = false
	c := p.cont
	p.cont = nil
	c()
	if !p.armed {
		p.unregister()
	}
}

// runProg is the kernel's dispatch for an eProg entry: disarm, step the
// program's plan, and retire the program if it parked nowhere new.
//
//bgplint:hot
func (p *Proc) runProg() {
	defer p.progRecover()
	p.armed = false
	p.stepProg()
	if !p.armed {
		p.unregister()
	}
}

// checkIdle guards the tail-call contract: arming a second resume while one
// is pending means the body kept executing past a parking operation. It also
// carries the epoch check for every inline program operation.
func (p *Proc) checkIdle() {
	p.check()
	if p.armed {
		panic("sim: program operation with a resume already pending on " + p.Name())
	}
}

// schedContAt schedules the stored continuation at absolute time t, using
// the same now-vs-future placement rule as schedProc so the entry lands
// exactly where the process's own resume would have.
//
//bgplint:hot
func (p *Proc) schedContAt(t Time) {
	p.armed = true
	if t <= p.k.now {
		p.k.ring.push(entry{kind: eCont, idx: p.self})
		return
	}
	p.k.queue.push(t, entry{kind: eCont, idx: p.self})
}

// SleepThen advances the process by d of virtual time and then continues
// with cont — the explicit-resume form of Proc.Sleep. Like Sleep it always
// schedules, even for zero durations.
//
//bgplint:hot
func (p *Proc) SleepThen(d Time, cont func()) {
	if !p.inline {
		p.Sleep(d)
		cont()
		return
	}
	p.checkIdle()
	if d < 0 {
		d = 0
	}
	p.cont = cont
	p.schedContAt(p.k.now + d)
}

// SleepUntilThen continues with cont at absolute virtual time t — the
// explicit-resume form of Proc.SleepUntil, including its already-elapsed
// fast path (cont runs inline, nothing is scheduled).
//
//bgplint:hot
func (p *Proc) SleepUntilThen(t Time, cont func()) {
	if !p.inline {
		p.SleepUntil(t)
		cont()
		return
	}
	p.checkIdle()
	if t <= p.k.now {
		cont()
		return
	}
	p.cont = cont
	p.schedContAt(t)
}

// BusyThen reserves bytes on pipe, occupies the process until both the
// serialized reservation and the concurrent fixed cost complete, then
// continues with cont — the explicit-resume form of the Plan.Busy /
// hw core-memory-operation pattern:
//
//	done := pipe.Reserve(bytes); p.SleepUntil(max(done, now+concurrent))
//
//bgplint:hot
func (p *Proc) BusyThen(pipe *Pipe, bytes int, concurrent Time, cont func()) {
	done := pipe.Reserve(bytes)
	if c := p.k.now + concurrent; c > done {
		done = c
	}
	if !p.inline {
		p.SleepUntil(done)
		cont()
		return
	}
	p.checkIdle()
	if done <= p.k.now {
		cont()
		return
	}
	p.cont = cont
	p.schedContAt(done)
}

// WaitThen continues with cont once ev fires — the explicit-resume form of
// Proc.Wait. If ev has already fired cont runs inline, exactly where Wait
// would have returned without yielding.
//
//bgplint:hot
func (p *Proc) WaitThen(ev *Event, cont func()) {
	if !p.inline {
		p.Wait(ev)
		cont()
		return
	}
	p.checkIdle()
	ev.check()
	if ev.fired {
		cont()
		return
	}
	p.waitEv = ev
	p.k.blocked++
	p.cont = cont
	p.armed = true
	ev.waiters = append(ev.waiters, entry{kind: eCont, idx: p.self})
}

// WaitGEThen continues with cont once c reaches at least v — the
// explicit-resume form of Proc.WaitGE.
//
//bgplint:hot
func (p *Proc) WaitGEThen(c *Counter, v int64, cont func()) {
	if !p.inline {
		p.WaitGE(c, v)
		cont()
		return
	}
	p.checkIdle()
	c.check()
	if c.v >= v {
		cont()
		return
	}
	p.waitC, p.waitGE = c, v
	p.k.blocked++
	p.cont = cont
	p.armed = true
	c.wait(v, entry{kind: eCont, idx: p.self})
}

// WaitPlanThen blocks on ev, runs pl, then continues with cont — the
// explicit-resume form of Proc.WaitPlan followed by the rest of the body.
//
//bgplint:hot
func (p *Proc) WaitPlanThen(ev *Event, pl *Plan, cont func()) {
	if !p.inline {
		p.WaitPlan(ev, pl)
		cont()
		return
	}
	if len(pl.steps) == 0 {
		p.WaitThen(ev, cont)
		return
	}
	p.checkIdle()
	ev.check()
	if ev.fired {
		// Wait would have returned without yielding; the plan steps from
		// here, scheduling exactly where the unfused slice would have.
		p.cont = cont
		p.stepProg()
		return
	}
	p.waitEv = ev
	p.k.blocked++
	p.cont = cont
	p.armed = true
	ev.waiters = append(ev.waiters, entry{kind: eProg, idx: p.self})
}

// WaitGEPlanThen blocks until c reaches at least v, runs pl, then continues
// with cont — the explicit-resume form of Proc.WaitGEPlan followed by the
// rest of the body.
//
//bgplint:hot
func (p *Proc) WaitGEPlanThen(c *Counter, v int64, pl *Plan, cont func()) {
	if !p.inline {
		p.WaitGEPlan(c, v, pl)
		cont()
		return
	}
	if len(pl.steps) == 0 {
		p.WaitGEThen(c, v, cont)
		return
	}
	p.checkIdle()
	c.check()
	if c.v >= v {
		p.cont = cont
		p.stepProg()
		return
	}
	p.waitC, p.waitGE = c, v
	p.k.blocked++
	p.cont = cont
	p.armed = true
	c.wait(v, entry{kind: eProg, idx: p.self})
}

// stepProg is Plan.advance for inline processes: instant steps execute in
// place, a timed step schedules the plan's continuation — or, for the last
// step, the stored body continuation itself — at its completion time, and a
// plan that exhausts on instant steps runs the continuation right here, at
// the exact queue position Kernel.fused would have resumed the goroutine.
//
//bgplint:hot
func (p *Proc) stepProg() {
	k := p.k
	pl := &p.plan
	for pl.i < len(pl.steps) {
		s := &pl.steps[pl.i]
		pl.i++
		var done Time
		switch s.kind {
		case stepSleep:
			done = k.now + s.d
		case stepBusy:
			done = s.pipe.Reserve(s.bytes)
			if c := k.now + s.d; c > done {
				done = c
			}
			if done <= k.now {
				continue // mirrors the unfused SleepUntil fast path
			}
		case stepAdd:
			s.c.Add(s.n)
			continue
		}
		if pl.i == len(pl.steps) {
			p.schedContAt(done)
		} else {
			p.armed = true
			if done <= k.now {
				k.ring.push(entry{kind: eProg, idx: p.self})
			} else {
				k.queue.push(done, entry{kind: eProg, idx: p.self})
			}
		}
		return
	}
	c := p.cont
	p.cont = nil
	c()
}
