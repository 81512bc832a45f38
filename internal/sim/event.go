package sim

// Event is a one-shot occurrence in virtual time. Processes block on it with
// Proc.Wait; callbacks subscribe with OnFire. Firing an event releases all
// current and future waiters. Events are not reusable; allocate a new one per
// occurrence — and not retainable across Kernel.Reset: the epoch stamp makes
// a stale handle panic instead of aliasing whatever now occupies its slot.
type Event struct {
	k       *Kernel
	name    string
	epoch   uint32
	fired   bool
	waiters []entry // parked process resumes (Wait) and callbacks (OnFire)

	// fpGen/fpID intern this object into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// object is already labelled fpID; any other value means unseen. The
	// stamp lives on the object so a rack-scale capture interns millions of
	// objects with two word writes instead of a map insert.
	fpGen uint64
	fpID  uint32
}

// NewEvent returns an unfired event, carved from the kernel's arena (see
// arena.go). The name appears in deadlock reports. Every field is
// reinitialized here: after a Reset the slot still holds a previous run's
// state (the waiter slice keeps its capacity on purpose).
func (k *Kernel) NewEvent(name string) *Event {
	e := k.arena.newEvent()
	e.k, e.name, e.epoch = k, name, k.epoch
	e.fired = false
	e.waiters = e.waiters[:0]
	return e
}

// check panics when the handle predates the kernel's current epoch: its slab
// slot belongs to the next lease now (or will shortly).
func (e *Event) check() {
	if e.epoch != e.k.epoch {
		panic("sim: event handle (" + e.name + ") used across Kernel.Reset")
	}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Reserve grows the waiter list's capacity to at least n. Callers that know
// the subscriber count up front (a barrier event takes one waiter per rank)
// use it to replace log2(n) doubling copies with one exact allocation; the
// capacity then survives Kernel.Reset with the slot, like any other waiter
// slice.
func (e *Event) Reserve(n int) {
	e.check()
	if cap(e.waiters) < n {
		w := make([]entry, len(e.waiters), n)
		copy(w, e.waiters)
		e.waiters = w
	}
}

// Fire marks the event fired and schedules all waiters at the current virtual
// time. Firing twice panics: it always indicates a protocol bug.
//
// The waiters are released as one run-ring batch: the blocked bookkeeping
// (normally done per-entry in Kernel.wake) runs first, then the whole slice
// is appended to the ring in a single copy, preserving registration order.
func (e *Event) Fire() {
	e.check()
	if e.fired {
		panic("sim: event " + e.name + " fired twice")
	}
	e.fired = true
	if len(e.waiters) == 0 {
		return
	}
	k := e.k
	for _, w := range e.waiters {
		if w.kind != eFn {
			p := k.procAt(w.idx)
			k.blocked--
			p.waitEv, p.waitC = nil, nil
		}
	}
	k.ring.pushBatch(e.waiters)
	e.waiters = e.waiters[:0]
}

// OnFire registers fn to run when the event fires. If the event has already
// fired, fn is scheduled at the current time.
func (e *Event) OnFire(fn func()) {
	e.check()
	if e.fired {
		e.k.At(e.k.now, fn)
		return
	}
	e.waiters = append(e.waiters, entry{kind: eFn, idx: e.k.newCb(fn)})
}
