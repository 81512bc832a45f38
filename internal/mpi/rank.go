package mpi

import (
	"fmt"

	"bgpcoll/internal/cnk"
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
)

// Rank is one MPI process: a simulated core of one node. The layout is the
// per-rank flyweight: the CNK process-window state is embedded (not a
// separate allocation), the mailbox is nil until the rank's first
// point-to-point message, and the process name ("rankN") is synthesized
// lazily by the kernel from the shared "rank" prefix and the id.
type Rank struct {
	w      *World
	id     int
	nodeID int
	lrank  int
	node   *machine.Node
	proc   *sim.Proc
	cnk    cnk.Process
	inbox  *mailbox // lazy; use box()
	seq    int64    // collective sequence number, advanced per collective call
}

// Rank returns the global rank id.
func (r *Rank) Rank() int { return r.id }

// Size returns the job's rank count.
func (r *Rank) Size() int { return r.w.Size() }

// NodeID returns the rank's node.
func (r *Rank) NodeID() int { return r.nodeID }

// LocalRank returns the rank's position within its node (0..ProcsPerNode-1).
func (r *Rank) LocalRank() int { return r.lrank }

// LocalSize returns the MPI processes per node.
func (r *Rank) LocalSize() int { return r.w.M.Cfg.Mode.ProcsPerNode() }

// IsNodeMaster reports whether this rank is its node's local rank 0.
func (r *Rank) IsNodeMaster() bool { return r.lrank == 0 }

// Coord returns the rank's node coordinate.
func (r *Rank) Coord() geometry.Coord { return r.node.HW.Coord }

// World returns the owning world.
func (r *Rank) World() *World { return r.w }

// Machine returns the underlying machine.
func (r *Rank) Machine() *machine.Machine { return r.w.M }

// Node returns the rank's node devices.
func (r *Rank) Node() *machine.Node { return r.node }

// Proc returns the rank's simulated process. Algorithm implementations use
// it to consume core time.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// CNK returns the rank's process-window state.
func (r *Rank) CNK() *cnk.Process { return &r.cnk }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.proc.Now() }

// RankOf returns the global rank of the process with the given local rank on
// node nodeID.
func (r *Rank) RankOf(nodeID, lrank int) int {
	return nodeID*r.LocalSize() + lrank
}

// LocalPeer returns this node's rank with the given local rank.
func (r *Rank) LocalPeer(lrank int) *Rank {
	return &r.w.ranks[r.RankOf(r.nodeID, lrank)]
}

// NewBuf allocates a message buffer honoring the world's functional mode.
func (r *Rank) NewBuf(n int) data.Buf { return data.New(n, r.w.M.Cfg.Functional) }

// NextSeq advances and returns the rank's collective sequence number. All
// ranks must issue collectives in the same order (an MPI requirement), so
// equal sequence numbers identify the same operation across ranks.
func (r *Rank) NextSeq() int64 {
	r.seq++
	return r.seq
}

// WorldShared returns job-wide shared state for collective seq, created by
// the first arriving rank; all ranks must release it.
func (r *Rank) WorldShared(seq int64, kind string, create func() any) any {
	return r.w.shared(seq, kind, r.Size(), create)
}

// ReleaseWorldShared drops the rank's reference from WorldShared state.
func (r *Rank) ReleaseWorldShared(seq int64, kind string) {
	r.w.release(seq, kind)
}

// Barrier synchronizes all ranks over the global interrupt network.
func (r *Rank) Barrier() {
	seq := r.NextSeq()
	st := r.WorldShared(seq, "barrier", func() any {
		return &barrierState{ev: r.w.M.K.NewEvent(fmt.Sprintf("barrier%d", seq))}
	}).(*barrierState)
	st.arrived++
	if st.arrived == r.Size() {
		r.w.M.K.After(r.w.M.Cfg.Params.BarrierLatency, st.ev.Fire)
	}
	r.proc.Wait(st.ev)
	r.ReleaseWorldShared(seq, "barrier")
}

// BarrierThen is the explicit-resume form of Barrier: done runs once all
// ranks have arrived and the interrupt-network latency has elapsed.
//
// The shared arrival state is released at arrival rather than at release
// time: the op registry refcounts a fixed party count, so arrive/release
// order is immaterial, and releasing here lets done pass straight to the
// wait — the wrapper closure this used to allocate per rank per barrier was
// the largest single bench-side entry in the rack-scale sweep's allocation
// profile.
func (r *Rank) BarrierThen(done func()) {
	seq := r.NextSeq()
	st := r.WorldShared(seq, "barrier", func() any {
		ev := r.w.M.K.NewEvent(fmt.Sprintf("barrier%d", seq))
		ev.Reserve(r.Size())
		return &barrierState{ev: ev}
	}).(*barrierState)
	st.arrived++
	if st.arrived == r.Size() {
		r.w.M.K.After(r.w.M.Cfg.Params.BarrierLatency, st.ev.Fire)
	}
	ev := st.ev
	r.ReleaseWorldShared(seq, "barrier")
	r.proc.WaitThen(ev, done)
}

type barrierState struct {
	arrived int
	ev      *sim.Event
}
