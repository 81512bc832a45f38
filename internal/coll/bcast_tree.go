package coll

import (
	"fmt"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/tree"
)

// The collective-network broadcasts below are written in explicit-resume
// (program) style: every loop is a recursive continuation closure and every
// blocking primitive is its *Then form, so a rank running them needs no
// goroutine. The same bodies ARE the blocking algorithms — on a
// goroutine-backed rank each *Then operation blocks and calls its
// continuation synchronously — so there is exactly one transcription of each
// protocol (see sim/program.go and DESIGN.md §11).

// injectWindow bounds how many chunks an injecting core may run ahead of
// delivery, modeling the collective network's limited buffering.
const injectWindow = 4

// treeBcastState is the job-wide shared state of one collective-network
// broadcast: the per-chunk combine operations plus every node's intra-node
// counters.
type treeBcastState struct {
	src   data.Buf
	spans []hw.Span
	ops   []*tree.Op // per-chunk combines

	sw    []*sim.Counter // per node: bytes received by the reception core
	done  []*sim.Counter // per node: peers finished
	fill  []*sim.Counter // per node: bytes copied into the injector's buffer
	peer  [][]*sim.Counter
	rxBuf []data.Buf // per node: reception rank's buffer (window keys)
	r0Buf []data.Buf // per node: injector rank's buffer (window keys)
}

const treeBcastKind = "bcast.tree"

func getTreeBcastState(r *mpi.Rank, seq int64, total int) *treeBcastState {
	return r.WorldShared(seq, treeBcastKind, func() any {
		m := r.Machine()
		nodes := m.Geom.Nodes()
		ppn := r.LocalSize()
		spans := m.Cfg.Params.Chunks(total)
		st := &treeBcastState{
			spans: spans,
			ops:   make([]*tree.Op, len(spans)),
			sw:    make([]*sim.Counter, nodes),
			done:  make([]*sim.Counter, nodes),
			fill:  make([]*sim.Counter, nodes),
			peer:  make([][]*sim.Counter, nodes),
			rxBuf: make([]data.Buf, nodes),
			r0Buf: make([]data.Buf, nodes),
		}
		for i, s := range spans {
			st.ops[i] = m.Tree.NewOp(s.Len)
		}
		for n := 0; n < nodes; n++ {
			st.sw[n] = m.K.NewCounter(fmt.Sprintf("treebc%d.sw%d", seq, n))
			st.done[n] = m.K.NewCounter("done")
			st.fill[n] = m.K.NewCounter("fill")
			st.peer[n] = make([]*sim.Counter, ppn)
			for p := 1; p < ppn; p++ {
				st.peer[n][p] = m.K.NewCounter("peer")
			}
		}
		return st
	}).(*treeBcastState)
}

// treeFinish builds the completion continuation every tree broadcast ends
// with: install the payload on non-root ranks, release the shared state (the
// position the blocking form's defer ran at), then continue.
func treeFinish(r *mpi.Rank, st *treeBcastState, seq int64, buf data.Buf, root int, done func()) func() {
	return func() {
		if r.Rank() != root {
			installPayload(buf, st.src)
		}
		r.ReleaseWorldShared(seq, treeBcastKind)
		done()
	}
}

// The chunk loops below are explicit state machines rather than recursive
// closures: each one is a small struct whose continuation is a method value
// bound once per rank per broadcast. A closure-based loop allocates its
// continuations once per *chunk*, and at 8192 ranks times tens of chunks the
// continuation garbage dominated the sweep allocation profile. The
// registration sequence (which *Then runs, in what order, with what plan
// contents) is identical to the closure form, so virtual times are
// bit-for-bit unchanged.

// injectLoop drives one node's injection side: the root's injector feeds
// the payload, every other node's injector feeds zeros into the global OR
// (paper §V-B). Injection is windowed against delivery to model the
// network's finite buffering.
type injectLoop struct {
	st      *treeBcastState
	net     *tree.Network
	p       *sim.Proc
	i       int
	cont    func()
	afterFn func() // bound method value: after, allocated once
}

func injectAllThen(r *mpi.Rank, st *treeBcastState, cont func()) {
	l := &injectLoop{st: st, net: r.Machine().Tree, p: r.Proc(), cont: cont}
	l.afterFn = l.after
	l.step()
}

//bgplint:hot
func (l *injectLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	touch := l.net.TouchTime(l.st.spans[l.i].Len)
	if l.i >= injectWindow {
		pl := l.p.NewPlan()
		pl.Sleep(touch)
		l.p.WaitPlanThen(l.st.ops[l.i-injectWindow].Delivered(), pl, l.afterFn)
	} else {
		l.p.SleepThen(touch, l.afterFn)
	}
}

//bgplint:hot
func (l *injectLoop) after() {
	l.st.ops[l.i].Inject()
	l.i++
	l.step()
}

// recvLoop drives one node's reception side, paying the core packet-touch
// cost per chunk and publishing progress to the node's software counter (sw
// may be nil for observers that only pace delivery, like the SMP helper
// thread).
type recvLoop struct {
	st      *treeBcastState
	net     *tree.Network
	sw      *sim.Counter
	p       *sim.Proc
	i       int
	cont    func()
	afterFn func()
}

func receiveAllThen(r *mpi.Rank, st *treeBcastState, cont func()) {
	recvAllOn(r.Proc(), r.Machine().Tree, st, st.sw[r.NodeID()], cont)
}

// recvAllOn is receiveAllThen for an explicit process (the SMP helper runs
// it on a spawned communication thread rather than the rank's own process).
func recvAllOn(p *sim.Proc, net *tree.Network, st *treeBcastState, sw *sim.Counter, cont func()) {
	l := &recvLoop{st: st, net: net, sw: sw, p: p, cont: cont}
	l.afterFn = l.after
	l.step()
}

//bgplint:hot
func (l *recvLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	pl := l.p.NewPlan()
	pl.Sleep(l.net.TouchTime(l.st.spans[l.i].Len))
	l.p.WaitPlanThen(l.st.ops[l.i].Delivered(), pl, l.afterFn)
}

//bgplint:hot
func (l *recvLoop) after() {
	if l.sw != nil {
		l.sw.Add(int64(l.st.spans[l.i].Len))
	}
	l.i++
	l.step()
}

// masterPumpThen drives both sides of the collective network on a single
// core, the way the production quad-mode algorithms do: the core alternates
// between injecting the next chunk and draining any chunks the network has
// delivered (paying a packet-touch each way), so chunk latency overlaps but
// the core's throughput halves — the imbalance the shared-address core
// specialization removes. onRecv runs after each chunk's reception cost and
// must call k exactly once when its own work completes.
func masterPumpThen(r *mpi.Rank, st *treeBcastState, onRecv func(i int, span hw.Span, k func()), cont func()) {
	m := &masterPump{st: st, net: r.Machine().Tree, p: r.Proc(), onRecv: onRecv, cont: cont}
	m.afterInjectFn = m.afterInject
	m.enterRecvFn = m.enterRecv
	m.afterRecvFn = m.afterRecv
	m.inject()
}

// masterPump is masterPumpThen's state machine. phase records what the pump
// was doing when it parked for a reception, so afterRecv can resume exactly
// where the closure form's captured continuation would have: back into the
// opportunistic drain loop, retrying a window-blocked injection, or draining
// the tail.
type masterPump struct {
	st     *treeBcastState
	net    *tree.Network
	p      *sim.Proc
	onRecv func(i int, span hw.Span, k func())
	cont   func()

	injIdx  int
	recvIdx int
	phase   uint8

	afterInjectFn func()
	enterRecvFn   func()
	afterRecvFn   func()
}

const (
	pumpDrain uint8 = iota // receive came from drain: drain again, then inject
	pumpRetry              // receive unblocked the window: retry the same injection
	pumpTail               // injection done: keep receiving until all chunks land
)

//bgplint:hot
func (m *masterPump) inject() {
	if m.injIdx == len(m.st.spans) {
		m.tail()
		return
	}
	// Injection back-pressure: the network buffers only a few chunks.
	if m.injIdx-m.recvIdx >= injectWindow {
		m.phase = pumpRetry
		m.recvBlocked()
		return
	}
	// Inject (data or zeros): one packet-touch on the pumping core.
	m.p.SleepThen(m.net.TouchTime(m.st.spans[m.injIdx].Len), m.afterInjectFn)
}

//bgplint:hot
func (m *masterPump) afterInject() {
	m.st.ops[m.injIdx].Inject()
	m.injIdx++
	m.drain()
}

// drain opportunistically receives every chunk the network has already
// delivered before the pump injects the next one.
//
//bgplint:hot
func (m *masterPump) drain() {
	if m.recvIdx < len(m.st.spans) && m.st.ops[m.recvIdx].Delivered().Fired() {
		m.phase = pumpDrain
		m.p.SleepThen(m.net.TouchTime(m.st.spans[m.recvIdx].Len), m.enterRecvFn)
		return
	}
	m.inject()
}

//bgplint:hot
func (m *masterPump) tail() {
	if m.recvIdx < len(m.st.spans) {
		m.phase = pumpTail
		m.recvBlocked()
		return
	}
	m.cont()
}

// recvBlocked parks behind a not-yet-delivered chunk: the wait and the
// reception packet-touch fuse into one parked stretch.
//
//bgplint:hot
func (m *masterPump) recvBlocked() {
	i := m.recvIdx
	pl := m.p.NewPlan()
	pl.Sleep(m.net.TouchTime(m.st.spans[i].Len))
	m.p.WaitPlanThen(m.st.ops[i].Delivered(), pl, m.enterRecvFn)
}

//bgplint:hot
func (m *masterPump) enterRecv() {
	i := m.recvIdx
	m.onRecv(i, m.st.spans[i], m.afterRecvFn)
}

//bgplint:hot
func (m *masterPump) afterRecv() {
	m.recvIdx++
	switch m.phase {
	case pumpDrain:
		m.drain()
	case pumpRetry:
		m.inject()
	default:
		m.tail()
	}
}

// bcastTreeSMP is the current SMP-mode algorithm (paper §V-B): the main
// thread injects while a helper communication thread receives, together
// saturating the collective network.
func bcastTreeSMP(r *mpi.Rank, buf data.Buf, root int, done func()) {
	seq := r.NextSeq()
	st := getTreeBcastState(r, seq, buf.Len())
	if r.Rank() == root {
		st.src = buf
	}
	k := r.Machine().K
	helperDone := k.NewEvent(fmt.Sprintf("treebc%d.helper%d", seq, r.Rank()))
	k.SpawnProgram(fmt.Sprintf("rank%d.comm", r.Rank()), func(p *sim.Proc) {
		recvAllOn(p, r.Machine().Tree, st, nil, helperDone.Fire)
	})
	finish := treeFinish(r, st, seq, buf, root, done)
	injectAllThen(r, st, func() {
		r.Proc().WaitThen(helperDone, finish)
	})
}

// bcastTreeShmem is the quad-mode latency algorithm (paper §V-B): the master
// core injects and receives into a shared-memory segment, serialized on one
// core; peers copy the data out of the segment.
func bcastTreeShmem(r *mpi.Rank, buf data.Buf, root int, done func()) {
	seq := r.NextSeq()
	st := getTreeBcastState(r, seq, buf.Len())
	if r.Rank() == root {
		st.src = buf
	}

	node := r.NodeID()
	cached := quadBcastFootprint(r, buf.Len())
	finish := treeFinish(r, st, seq, buf, root, done)

	if r.IsNodeMaster() {
		sw := st.sw[node]
		masterPumpThen(r, st, func(i int, span hw.Span, k func()) {
			sw.Add(int64(span.Len))
			if r.Rank() != root {
				// The master's own buffer needs the data too: a third
				// byte-touch on the same core.
				r.Node().HW.CopyThen(r.Proc(), span.Len, cached, k)
				return
			}
			k()
		}, finish)
	} else {
		treePeerCopyThen(r, st, root, cached, finish)
	}
}

// peerCopyLoop is the peer-side copy loop shared by the shmem and shaddr
// algorithms: wait on the node's software counter and copy arrived chunks.
type peerCopyLoop struct {
	st     *treeBcastState
	sw     *sim.Counter
	done   *sim.Counter
	p      *sim.Proc
	node   *hw.Node
	isRoot bool
	cached bool
	i      int
	got    int64
	cont   func()
	stepFn func()
}

func treePeerCopyThen(r *mpi.Rank, st *treeBcastState, root int, cached bool, cont func()) {
	n := r.NodeID()
	l := &peerCopyLoop{
		st: st, sw: st.sw[n], done: st.done[n], p: r.Proc(), node: r.Node().HW,
		isRoot: r.Rank() == root, cached: cached, cont: cont,
	}
	l.stepFn = l.step
	l.step()
}

//bgplint:hot
func (l *peerCopyLoop) step() {
	if l.i == len(l.st.spans) {
		l.done.Add(1)
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	l.got += int64(span.Len)
	pl := l.p.NewPlan()
	if !l.isRoot {
		l.node.PlanPoll(pl)
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.i++
	l.p.WaitGEPlanThen(l.sw, l.got, pl, l.stepFn)
}

// bcastTreeDMAFIFO is the current quad-mode algorithm: the master core
// injects and receives; the DMA then moves the data to the peers' memory
// FIFOs, from which each peer's core copies into its application buffer.
func bcastTreeDMAFIFO(r *mpi.Rank, buf data.Buf, root int, done func()) {
	treeDMACommon(r, buf, root, true, done)
}

// bcastTreeDMADirect is the current quad-mode variant where the DMA
// direct-puts into the peers' application buffers, skipping the FIFO copy.
func bcastTreeDMADirect(r *mpi.Rank, buf data.Buf, root int, done func()) {
	treeDMACommon(r, buf, root, false, done)
}

func treeDMACommon(r *mpi.Rank, buf data.Buf, root int, fifo bool, done func()) {
	seq := r.NextSeq()
	st := getTreeBcastState(r, seq, buf.Len())
	if r.Rank() == root {
		st.src = buf
	}
	m := r.Machine()

	node := r.NodeID()
	ppn := r.LocalSize()
	cached := quadBcastFootprint(r, buf.Len())
	finish := treeFinish(r, st, seq, buf, root, done)

	if r.IsNodeMaster() {
		masterPumpThen(r, st, func(i int, span hw.Span, k func()) {
			for p := 1; p < ppn; p++ {
				putDone := r.Node().DMA.LocalCopy(r.Now(), span.Len)
				// AddAt is the closure-free At(putDone, func() { cnt.Add(n) }):
				// one scheduled add per (chunk, peer) was the sweep's single
				// hottest allocation site.
				m.K.AddAt(putDone, st.peer[node][p], int64(span.Len))
			}
			k()
		}, finish)
	} else {
		l := &dmaPeerLoop{
			st: st, cnt: st.peer[node][r.LocalRank()], p: r.Proc(), node: r.Node().HW,
			fifoCopy: fifo && r.Rank() != root, cached: cached, cont: finish,
		}
		l.stepFn = l.step
		l.step()
	}
}

// dmaPeerLoop is the peer-side reception loop of the DMA broadcasts: wait on
// the per-peer DMA progress counter and, in FIFO mode, pay the core copy from
// the memory FIFO into the application buffer.
type dmaPeerLoop struct {
	st       *treeBcastState
	cnt      *sim.Counter
	p        *sim.Proc
	node     *hw.Node
	fifoCopy bool
	cached   bool
	i        int
	got      int64
	cont     func()
	stepFn   func()
}

//bgplint:hot
func (l *dmaPeerLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	l.got += int64(span.Len)
	pl := l.p.NewPlan()
	if l.fifoCopy {
		// Memory-FIFO reception needs a core copy into the application buffer.
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.i++
	l.p.WaitGEPlanThen(l.cnt, l.got, pl, l.stepFn)
}

// bcastTreeShaddr is the proposed quad-mode algorithm (paper §V-B, Fig. 4):
// core specialization over shared address space. Local rank 0 injects
// (payload at the root, zeros elsewhere), local rank 1 receives directly
// into its application buffer and publishes a software counter, ranks 2 and
// 3 copy through process windows, and rank 2 additionally fills rank 0's
// buffer — the injector has no cycles to copy, and memory bandwidth is at
// least twice the collective network's.
func bcastTreeShaddr(r *mpi.Rank, buf data.Buf, root int, done func()) {
	seq := r.NextSeq()
	st := getTreeBcastState(r, seq, buf.Len())
	if r.Rank() == root {
		st.src = buf
	}
	node := r.NodeID()
	total := buf.Len()
	cached := quadBcastFootprint(r, total)
	rootRank := r.World().Rank(root)
	rootOnNode := rootRank.NodeID() == node
	finish := treeFinish(r, st, seq, buf, root, done)

	switch r.LocalRank() {
	case 0: // injection process
		st.r0Buf[node] = buf
		afterMap := func() {
			injectAllThen(r, st, func() {
				if r.Rank() != root {
					// Wait for rank 2 to fill this buffer.
					r.Proc().WaitGEThen(st.fill[node], int64(total), finish)
					return
				}
				finish()
			})
		}
		if rootOnNode && root != r.Rank() {
			// Inject the payload out of the root rank's buffer through a
			// process window.
			r.CNK().MapThen(r.Proc(), windowKey(rootRank.LocalRank(), st.src), total, afterMap)
		} else {
			afterMap()
		}

	case 1: // reception process: directly into its application buffer
		st.rxBuf[node] = buf
		if r.LocalSize() == 2 {
			// Dual mode has no dedicated copy processes: the reception
			// process also fills the injector's buffer.
			fillInjector := r.RankOf(node, 0) != root
			l := &dualRecvLoop{
				st: st, net: r.Machine().Tree, sw: st.sw[node], fill: st.fill[node],
				p: r.Proc(), node: r.Node().HW,
				fillInjector: fillInjector, cached: cached, cont: finish,
			}
			l.stepFn = l.step
			l.afterFn = l.after
			if fillInjector {
				r.CNK().MapThen(r.Proc(), windowKey(0, st.r0Buf[node]), total, l.stepFn)
			} else {
				l.step()
			}
			return
		}
		receiveAllThen(r, st, finish)

	case 2: // copy process, also responsible for the injector's buffer
		sw := st.sw[node]
		r.Proc().WaitGEThen(sw, 1, func() {
			r.CNK().MapThen(r.Proc(), windowKey(1, st.rxBuf[node]), total, func() {
				fillInjector := r.RankOf(node, 0) != root
				l := &shaddrCopyLoop{
					st: st, sw: sw, done: st.done[node], fill: st.fill[node],
					p: r.Proc(), node: r.Node().HW,
					isRoot: r.Rank() == root, fillInjector: fillInjector,
					cached: cached, cont: finish,
				}
				l.stepFn = l.step
				if fillInjector {
					r.CNK().MapThen(r.Proc(), windowKey(0, st.r0Buf[node]), total, l.stepFn)
				} else {
					l.step()
				}
			})
		})

	case 3: // copy process
		sw := st.sw[node]
		r.Proc().WaitGEThen(sw, 1, func() {
			r.CNK().MapThen(r.Proc(), windowKey(1, st.rxBuf[node]), total, func() {
				treePeerCopyThen(r, st, root, cached, finish)
			})
		})
	}
}

// dualRecvLoop is the dual-mode reception loop of the shaddr tree broadcast:
// with no dedicated copy processes, the reception process pays the per-chunk
// packet-touch, publishes the software counter, and — when the injector is
// not the root — copies each chunk into the injector's buffer on the same
// plan.
type dualRecvLoop struct {
	st           *treeBcastState
	net          *tree.Network
	sw           *sim.Counter
	fill         *sim.Counter
	p            *sim.Proc
	node         *hw.Node
	fillInjector bool
	cached       bool
	i            int
	cont         func()
	stepFn       func()
	afterFn      func()
}

//bgplint:hot
func (l *dualRecvLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	pl := l.p.NewPlan()
	pl.Sleep(l.net.TouchTime(span.Len))
	pl.Add(l.sw, int64(span.Len))
	if l.fillInjector {
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.p.WaitPlanThen(l.st.ops[l.i].Delivered(), pl, l.afterFn)
}

//bgplint:hot
func (l *dualRecvLoop) after() {
	if l.fillInjector {
		l.fill.Add(int64(l.st.spans[l.i].Len))
	}
	l.i++
	l.step()
}

// shaddrCopyLoop is the shaddr rank-2 copy loop: poll the reception rank's
// software counter, copy arrived chunks through the process window, and —
// when the injector is not the root — fill rank 0's buffer too (the extra
// copy rides the same plan; memory bandwidth exceeds the tree's, so it does
// not throttle the flow).
type shaddrCopyLoop struct {
	st           *treeBcastState
	sw           *sim.Counter
	done         *sim.Counter
	fill         *sim.Counter
	p            *sim.Proc
	node         *hw.Node
	isRoot       bool
	fillInjector bool
	cached       bool
	i            int
	got          int64
	cont         func()
	stepFn       func()
}

//bgplint:hot
func (l *shaddrCopyLoop) step() {
	if l.i == len(l.st.spans) {
		l.done.Add(1)
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	l.got += int64(span.Len)
	pl := l.p.NewPlan()
	l.node.PlanPoll(pl)
	if !l.isRoot {
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	if l.fillInjector {
		l.node.PlanCopy(pl, span.Len, l.cached)
		pl.Add(l.fill, int64(span.Len))
	}
	l.i++
	l.p.WaitGEPlanThen(l.sw, l.got, pl, l.stepFn)
}
