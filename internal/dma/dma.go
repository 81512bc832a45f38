// Package dma models the BG/P torus DMA engine (paper §III-A): the unit
// responsible for injecting packets into the torus, receiving packets from
// it, and performing local intra-node memory copies.
//
// The engine is a single shared bandwidth resource per node. It can keep all
// six torus links busy, but — the paper's central observation — it cannot
// additionally sustain the intra-node data movement of quad mode: when the
// same engine must also copy received data to three peer processes, network
// and local traffic queue behind one another and effective collective
// bandwidth collapses. That contention emerges naturally here because every
// operation reserves the same pipe.
//
// Direct put/get transfers complete into application buffers with no core
// involvement and update hardware byte counters that cores poll; memory-FIFO
// reception instead lands packets in a per-core FIFO that a core must copy
// out (the extra copy the shared-address schemes eliminate).
package dma

import (
	"fmt"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Engine is one node's DMA engine. The pipe is embedded (not pointed to):
// machine slabs hold engines densely, so a rack-scale world pays one struct,
// not two allocations, per engine.
type Engine struct {
	node *hw.Node
	k    *sim.Kernel
	pipe sim.Pipe
}

// New creates the engine for node n. Standalone construction registers the
// pipe immediately; partitions use Init over a dense slab instead.
func New(k *sim.Kernel, n *hw.Node) *Engine {
	e := &Engine{}
	Init(e, k, n)
	k.AdoptPipe(&e.pipe)
	return e
}

// Init initializes a caller-allocated engine in place: the hot
// world-construction path. It allocates nothing and touches only e, so
// disjoint engines may be initialized concurrently; the caller registers
// Pipe() with Kernel.AdoptPipe afterwards, serially.
//
//bgplint:hot
func Init(e *Engine, k *sim.Kernel, n *hw.Node) {
	e.node = n
	e.k = k
	k.InitPipe(&e.pipe, "node.dma", int32(n.ID), n.P.DMABps, 0)
}

// Pipe returns the engine's bandwidth pipe for kernel registration.
func (e *Engine) Pipe() *sim.Pipe { return &e.pipe }

// Node returns the owning node.
func (e *Engine) Node() *hw.Node { return e.node }

// Inject charges the engine for injecting wire bytes into the torus,
// starting no earlier than start (descriptor startup included), and returns
// the time the last byte has left the engine. The torus links are charged
// separately by the network layer.
func (e *Engine) Inject(start sim.Time, wire int) sim.Time {
	return e.pipe.ReserveFrom(start+e.node.P.DMAStartup, wire)
}

// Receive charges the engine for landing wire bytes that arrived from the
// torus at the given time, returning when the data is in memory.
func (e *Engine) Receive(arrived sim.Time, wire int) sim.Time {
	return e.pipe.ReserveFrom(arrived, wire)
}

// LocalCopy charges the engine for an intra-node memory-to-memory transfer
// of n bytes (a local direct put), starting no earlier than start. The
// engine both reads and writes memory, so the transfer occupies it for 2n
// bytes — the reason quad-mode algorithms that lean on the DMA for the
// intra-node dimension collapse (paper §V-A). The node's memory bus is
// charged as well.
func (e *Engine) LocalCopy(start sim.Time, n int) sim.Time {
	done := e.pipe.ReserveFrom(start+e.node.P.DMAStartup, 2*n)
	busDone := e.node.Bus.ReserveFrom(start, 2*n)
	if busDone > done {
		done = busDone
	}
	return done
}

// NewCounter allocates a hardware byte counter: the structure a core polls
// to track the progress of direct put/get operations. For every chunk of
// data written, the engine increments the counter by the chunk's byte count
// (the paper describes the mirror-image decrement formulation; counting up
// simplifies thresholds without changing behaviour).
func (e *Engine) NewCounter(name string) *sim.Counter {
	return e.k.NewCounter(fmt.Sprintf("node%d.dmacnt.%s", e.node.ID, name))
}

// CompleteInto schedules counter.Add(payload) at time t: the engine's
// counter update when a chunk completes.
func (e *Engine) CompleteInto(counter *sim.Counter, t sim.Time, payload int) {
	e.k.AddAt(t, counter, int64(payload))
}

// Stats exposes the engine pipe's utilization counters.
func (e *Engine) Stats() (bytes int64, busy sim.Time, transfers int64) {
	return e.pipe.Stats()
}
