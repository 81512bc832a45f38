package mpi

// Steady-state fingerprinting of the MPI layer (see internal/sim/steady.go
// for the mechanism and the induction argument). The kernel walk covers
// everything schedulable; this walk covers the layer state above it that can
// influence future execution: the shared-operation registry, per-rank
// sequence numbers, point-to-point mailboxes and process-window (CNK)
// residue. Everything time- or sequence-like is normalized so that two
// iterations differing only by the uniform per-iteration shift hash
// identically: virtual times are boundary-relative (sim.FP.Time) and
// collective sequence numbers are relative to rank 0's, which advances by
// the same per-iteration count as every key in a steady loop.
//
// Sequence numbers and the registry keys are deliberately NOT shifted by
// extrapolation: pending barrier-release continuations capture their seq by
// value (Rank.BarrierThen), so the final live iteration keeps running with
// the sequence numbers it was issued — the extrapolated run's observable
// results are bit-identical to full execution, while diagnostic-only values
// (sequence numbers reached, event names) may differ. The fingerprint never
// hashes those, so the induction stays sound.

import "bgpcoll/internal/sim"

// SteadyState canonicalizes the world's residual state into f. Unknown
// operation types and pending point-to-point traffic refuse the capture
// (extrapolation then falls back to full execution).
func (w *World) SteadyState(f *sim.FP) {
	var baseSeq int64
	if len(w.ranks) > 0 {
		baseSeq = w.ranks[0].seq
	}

	// The shared-operation registry, in sorted key order. Go randomizes map
	// iteration, but the subsequent sort makes the walk deterministic.
	keys := make([]opKey, 0, len(w.ops))
	for k := range w.ops { //bgplint:allow maporder -- keys are sorted below before hashing
		keys = append(keys, k)
	}
	sortOpKeys(keys)
	f.I64(int64(len(keys)))
	for _, k := range keys {
		e := w.ops[k]
		f.I64(k.seq - baseSeq)
		f.Str(k.kind)
		f.I64(int64(e.refs))
		h, ok := e.val.(sim.Hasher)
		if !ok {
			f.Refuse("op state " + k.kind + " is not fingerprintable")
			return
		}
		h.SteadyState(f)
		if f.Refused() {
			return
		}
	}

	f.I64(int64(len(w.ranks)))
	for i := range w.ranks {
		r := &w.ranks[i]
		f.I64(r.seq - baseSeq)
		if r.inbox != nil && !r.inbox.idle() {
			f.Refuse("pending point-to-point traffic")
			return
		}
		r.cnk.SteadyState(f)
	}
}

// sortOpKeys orders registry keys by (seq, kind): insertion sort —
// the registry holds a handful of live entries at any boundary.
func sortOpKeys(keys []opKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && opKeyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func opKeyLess(a, b opKey) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.kind < b.kind
}

// idle reports whether the mailbox holds no pending traffic. Consumed
// match-key entries keep empty slices in the maps, so emptiness is a per-key
// check, not a map-length check; iteration order is irrelevant to a boolean.
func (b *mailbox) idle() bool {
	for _, as := range b.arrived { //bgplint:allow maporder -- order-independent emptiness check
		if len(as) > 0 {
			return false
		}
	}
	for _, rs := range b.posted { //bgplint:allow maporder -- order-independent emptiness check
		if len(rs) > 0 {
			return false
		}
	}
	return true
}

// SteadyState canonicalizes the barrier op: the arrival count and the
// release event with its waiter list.
func (st *barrierState) SteadyState(f *sim.FP) {
	f.I64(int64(st.arrived))
	f.Event(st.ev)
}
