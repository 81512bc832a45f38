// Package tree models the BG/P collective network (paper §III-A): a tree
// topology spanning all compute nodes with an integer ALU at each hop,
// supporting reliable combine/broadcast at 850 MB/s.
//
// Broadcast on this network uses the hardware allreduce feature: the root
// injects data while every other node injects zeros into a global OR; the
// combined result is routed back down to all leaves. Two consequences shape
// the paper's algorithms and are modeled here:
//
//   - There is no DMA on this network: packet injection and reception are
//     performed by processor cores, so core time is consumed proportionally
//     to the data moved (charged by the callers via hw.Params.TreeCoreTouchBps).
//   - A combine for a chunk cannot complete until every node has injected
//     its contribution, and the result reaches the leaves one tree traversal
//     later.
//
// The shared channel is a single bandwidth pipe (one chunk occupies the whole
// tree for its wire time, up and down phases being hardware-pipelined); the
// traversal latency is proportional to the partition's tree depth.
package tree

import (
	"fmt"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Network is the collective network of one partition.
type Network struct {
	k     *sim.Kernel
	p     hw.Params
	pipe  *sim.Pipe
	depth int
	nodes int
	ops   int64
}

// New creates the collective network on the given kernel. The tree's
// traversal depth follows the physical wiring along the torus dimensions:
// DX+DY+DZ hops.
func New(k *sim.Kernel, geom geometry.Torus, p hw.Params) *Network {
	return &Network{
		k:     k,
		p:     p,
		pipe:  k.NewPipe("tree.channel", p.TreeBps, 0),
		depth: geom.DX + geom.DY + geom.DZ,
		nodes: geom.Nodes(),
	}
}

// Reset rewinds the network's operation counter for a fresh run on a reused
// partition (machine.Machine.Reset). The counter names every Op and its
// delivered event ("tree.opN"), so a reused world must restart it at zero to
// reproduce a fresh world's names — deadlock reports and traces compare
// them. The channel pipe itself is rewound by the kernel.
func (n *Network) Reset() {
	n.ops = 0
}

// Depth returns the traversal hop count of the tree.
func (n *Network) Depth() int { return n.depth }

// Latency returns the full traversal latency: depth x per-hop latency.
func (n *Network) Latency() sim.Time { return sim.Time(n.depth) * n.p.TreeHopLatency }

// Nodes returns the participating node count.
func (n *Network) Nodes() int { return n.nodes }

// WireBytes returns the on-wire size of a payload on this network.
func (n *Network) WireBytes(payload int) int { return n.p.TreeWireBytes(payload) }

// TouchTime returns the core time needed to inject or receive a payload of
// the given size (packet handling is done by cores on this network).
func (n *Network) TouchTime(payload int) sim.Time {
	return sim.TransferTime(n.WireBytes(payload), n.p.TreeCoreTouchBps)
}

// Op is one chunk's global combine: every node injects once, then the
// combined result is delivered to all nodes. Create one Op per chunk; the
// per-chunk Ops of a pipelined stream share the channel in order.
type Op struct {
	net       *Network
	name      string
	wire      int
	expected  int
	injected  int
	delivered *sim.Event
	at        sim.Time
}

// NewOp creates a combine operation for one chunk of the given payload size.
func (n *Network) NewOp(payload int) *Op {
	n.ops++
	return &Op{
		net:       n,
		name:      fmt.Sprintf("tree.op%d", n.ops),
		wire:      n.WireBytes(payload),
		expected:  n.nodes,
		delivered: n.k.NewEvent(fmt.Sprintf("tree.op%d.delivered", n.ops)),
	}
}

// Inject records one node's contribution as complete at the current virtual
// time (the caller has already consumed the injecting core's time). When the
// last node injects, the chunk reserves the tree channel and the result is
// delivered one traversal latency later.
func (op *Op) Inject() {
	op.injected++
	if op.injected > op.expected {
		panic(op.name + ": more injections than nodes")
	}
	if op.injected < op.expected {
		return
	}
	done := op.net.pipe.Reserve(op.wire)
	op.at = done + op.net.Latency()
	op.net.k.At(op.at, op.delivered.Fire)
}

// Delivered returns the event fired when the combined result has reached all
// leaves.
func (op *Op) Delivered() *sim.Event { return op.delivered }

// DeliveredAt returns the delivery time; valid once Delivered has fired.
func (op *Op) DeliveredAt() sim.Time {
	if !op.delivered.Fired() {
		panic(op.name + ": DeliveredAt before delivery")
	}
	return op.at
}

// Stats exposes the tree channel's utilization counters.
func (n *Network) Stats() (bytes int64, busy sim.Time, transfers int64) {
	return n.pipe.Stats()
}
