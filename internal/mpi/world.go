package mpi

import (
	"fmt"

	"bgpcoll/internal/cnk"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
)

// World is one MPI job on a simulated partition.
type World struct {
	M        *machine.Machine
	Tunables Tunables

	// ranks is a dense slab: one Rank value per rank, CNK state embedded,
	// mailbox lazy. Handles are interior pointers (&ranks[id]); the slab is
	// never appended to after build, so they stay valid for the world's
	// lifetime. Reconfigure reuses the backing array when the new job fits.
	ranks []Rank

	ops map[opKey]*opEntry
}

// Tunables select collective algorithm implementations, mirroring the
// protocol registries of CCMI. Empty strings mean automatic selection by
// message size and mode.
type Tunables struct {
	Bcast     string
	Allreduce string
	Gather    string
	Allgather string

	// TreeCrossover is the largest Bcast payload routed to the collective
	// network in automatic mode; larger messages use the torus.
	TreeCrossover int

	// ShortBcast is the largest payload using the latency-optimized
	// shared-memory tree algorithm in automatic quad mode.
	ShortBcast int

	// EagerLimit is the largest point-to-point payload sent eagerly
	// through memory FIFOs; larger messages use a rendezvous direct put.
	EagerLimit int

	// TorusColors limits the edge-disjoint routes the torus broadcast
	// uses (1..6; 0 = all six). Exists for the color-count ablation.
	TorusColors int
}

// DefaultTunables returns the automatic-selection thresholds.
func DefaultTunables() Tunables {
	return Tunables{
		TreeCrossover: 256 << 10,
		ShortBcast:    2 << 10,
		EagerLimit:    4 << 10,
	}
}

// NewWorld builds a world over a fresh machine. To record schedule events,
// attach a log afterwards: w.M.Trace = trace.New(n).
func NewWorld(cfg hw.Config) (*World, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{
		M:        m,
		Tunables: DefaultTunables(),
		ops:      make(map[opKey]*opEntry),
	}
	w.buildRanks()
	return w, nil
}

// buildRanks (re)fills the rank slab for the machine's current Cfg. Like
// machine.buildNodes, the fill fans out in contiguous blocks: rank id's
// content is a pure function of (id, Cfg), so the parallel fill is
// bit-identical to a serial one.
func (w *World) buildRanks() {
	n := w.M.Cfg.Ranks()
	if cap(w.ranks) < n {
		w.ranks = make([]Rank, n)
	} else {
		if len(w.ranks) > n {
			clear(w.ranks[n:])
		}
		w.ranks = w.ranks[:n]
	}
	machine.ParallelBlocks(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			w.initRank(id)
		}
	})
}

// initRank fills rank id's slab slot in place. Hot: one call per rank on the
// construction path, allocation-free — the CNK state is embedded, the
// mailbox stays nil until the first point-to-point message, and the process
// name is synthesized lazily by the kernel (SpawnIdx).
//
//bgplint:hot
func (w *World) initRank(id int) {
	ppn := w.M.Cfg.Mode.ProcsPerNode()
	nodeID := id / ppn
	lrank := id % ppn
	r := &w.ranks[id]
	r.w = w
	r.id = id
	r.nodeID = nodeID
	r.lrank = lrank
	r.node = w.M.Node(nodeID)
	r.proc = nil
	r.inbox = nil
	r.seq = 0
	cnk.Init(&r.cnk, r.node.HW, lrank)
}

// Size returns the rank count.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id's handle (for inspection; rank code receives its own
// handle through Run).
func (w *World) Rank(id int) *Rank { return &w.ranks[id] }

// Run executes fn on every rank as a simulated process and drives the
// simulation until all ranks return. It returns the virtual time consumed.
func (w *World) Run(fn func(r *Rank)) (sim.Time, error) {
	for id := range w.ranks {
		r := &w.ranks[id]
		r.proc = w.M.K.SpawnIdx("rank", int32(r.id), func(p *sim.Proc) {
			fn(r)
		})
	}
	err := w.M.K.Run()
	return w.M.K.Now(), err
}

// RunProgram executes fn on every rank as a program process: the body must be
// written in explicit-resume style (BarrierThen, BcastThen, ...) and is done
// when its last continuation returns without arming another resume. In the
// kernel's default mode no rank gets a goroutine; in noProgram reference mode
// the identical bodies run on goroutine processes, where every *Then
// operation blocks — either way the schedule is the same one Run produces
// from the blocking transcription.
func (w *World) RunProgram(fn func(r *Rank)) (sim.Time, error) {
	for id := range w.ranks {
		r := &w.ranks[id]
		r.proc = w.M.K.SpawnProgramIdx("rank", int32(r.id), func(p *sim.Proc) {
			fn(r)
		})
	}
	err := w.M.K.Run()
	return w.M.K.Now(), err
}

// opKey identifies one collective operation instance: every rank issues
// collectives in the same order, so (seq, kind) names the same operation on
// all of them.
type opKey struct {
	seq  int64
	kind string
}

type opEntry struct {
	val  any
	refs int
}

// shared returns the operation state for (seq, kind), creating it with
// create on first access. parties is the number of ranks that will acquire
// it; when all have released it, the entry is reclaimed.
func (w *World) shared(seq int64, kind string, parties int, create func() any) any {
	key := opKey{seq: seq, kind: kind}
	e, ok := w.ops[key]
	if !ok {
		e = &opEntry{val: create(), refs: parties}
		w.ops[key] = e
	}
	return e.val
}

// release drops one rank's reference to the operation state.
func (w *World) release(seq int64, kind string) {
	key := opKey{seq: seq, kind: kind}
	e, ok := w.ops[key]
	if !ok {
		panic(fmt.Sprintf("mpi: release of unknown op %+v", key))
	}
	e.refs--
	if e.refs == 0 {
		delete(w.ops, key)
	}
}
