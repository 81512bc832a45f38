// Package machine assembles a complete simulated BG/P partition from the
// hardware substrates: the nodes with their memory systems and DMA engines,
// the 3D torus, and the collective tree network, all driven by one
// simulation kernel.
package machine

import (
	"fmt"

	"bgpcoll/internal/dma"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/torus"
	"bgpcoll/internal/trace"
	"bgpcoll/internal/tree"
)

// Node bundles one compute node's devices. The pointers aim into the
// machine's dense slabs (hwNodes, engines below); the wrapper itself is two
// words, kept so the ~30 call sites reading m.Nodes[id].HW / .DMA survive
// the flyweight layout unchanged.
type Node struct {
	HW  *hw.Node
	DMA *dma.Engine
}

// Machine is one simulated partition.
type Machine struct {
	K     *sim.Kernel
	Cfg   hw.Config
	Geom  geometry.Torus
	Nodes []Node
	Torus *torus.Network
	Tree  *tree.Network

	// Trace, when non-nil, records schedule and protocol events.
	Trace *trace.Log

	// prm is the partition's one shared, immutable parameter set; every
	// hw.Node points at it instead of embedding a ~280-byte copy.
	prm hw.Params

	// Per-node device slabs. Fixed length after build (never appended to),
	// so interior pointers — Node wrappers, embedded pipes registered with
	// the kernel — stay valid for the machine's lifetime. Reconfigure reuses
	// their capacity when the new geometry fits.
	hwNodes []hw.Node
	engines []dma.Engine
}

// New validates cfg and builds the partition.
func New(cfg hw.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	k := sim.New()
	m := &Machine{K: k, Cfg: cfg, Geom: cfg.Torus}
	m.Torus = torus.New(k, cfg.Torus, cfg.Params)
	m.Tree = tree.New(k, cfg.Torus, cfg.Params)
	m.prm = cfg.Params
	m.buildNodes()
	return m, nil
}

// buildNodes (re)fills the per-node device slabs for the current Cfg and
// registers every device pipe with the kernel. The fill fans out in
// contiguous blocks (build.go): element id's content depends only on
// (id, Cfg), so the result is bit-identical to a serial fill. Pipe adoption
// appends to shared kernel state, so it runs serially in id order after the
// join.
func (m *Machine) buildNodes() {
	n := m.Cfg.Nodes()
	m.hwNodes = growSlab(m.hwNodes, n)
	m.engines = growSlab(m.engines, n)
	m.Nodes = growSlab(m.Nodes, n)
	ParallelBlocks(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			m.initNode(id)
		}
	})
	for id := 0; id < n; id++ {
		m.K.AdoptPipe(m.Nodes[id].HW.Bus)
		m.K.AdoptPipe(m.Nodes[id].DMA.Pipe())
	}
}

// initNode fills node id's slab slots in place. Hot: one call per node on
// the construction path, allocation-free (shared params, embedded pipes).
//
//bgplint:hot
func (m *Machine) initNode(id int) {
	hw.InitNode(&m.hwNodes[id], m.K, id, m.Geom.CoordOf(id), &m.prm)
	dma.Init(&m.engines[id], m.K, &m.hwNodes[id])
	m.Nodes[id] = Node{HW: &m.hwNodes[id], DMA: &m.engines[id]}
}

// growSlab returns a slab of length n, reusing s's backing array when it
// fits (Reconfigure) and clearing any shrunk-away tail so stale elements
// cannot pin memory.
func growSlab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	if len(s) > n {
		clear(s[n:])
	}
	return s[:n]
}

// Node returns the node with the given id.
func (m *Machine) Node(id int) *Node { return &m.Nodes[id] }

// NodeAt returns the node at coordinate c.
func (m *Machine) NodeAt(c geometry.Coord) *Node { return &m.Nodes[m.Geom.NodeID(c)] }

// Colors returns the color set the torus collectives use: six edge-disjoint
// routes on a torus partition.
func (m *Machine) Colors() []geometry.Color { return geometry.TorusColors() }
