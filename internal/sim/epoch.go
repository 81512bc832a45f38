// Conservative parallel epochs.
//
// A sharded run advances in windows [T, T+L) where T is the minimum pending
// timestamp across all shards and L is the kernel lookahead. Within a window
// every peer shard executes independently — in parallel on the window worker
// goroutines, or sequentially in shard order under noShard — because the
// post-time contract guarantees nothing produced inside the window can
// affect a peer shard before it ends: a post into a peer shard must land at
// or after src.now + L, and src.now >= T for the whole window, so the
// message lands at or after T + L = W. Hub shards run after the peer phase
// within the same window, so posts into a hub only need t >= src.now — the
// hub has not yet executed any instant the sender has reached.
//
// Cross-shard messages are buffered into per-(src,dst) lanes and delivered
// by the controller between phases. Delivery order is deterministic: for
// each destination, all incoming lanes are concatenated in source-shard-id
// order and stable-sorted by timestamp, so equal-time messages keep (src id,
// lane position) order — a pure function of the simulation, independent of
// which goroutine ran which shard when. Delivered messages enter the
// destination's event queue through the normal push path, in delivery
// order; since every delivered timestamp is strictly after the destination's
// clock (the window-edge invariant below), delivery never races the
// destination's same-instant ring.
//
// Window-edge invariant: when a shard finishes a window bounded by W, its
// ring is empty, every queue entry is at t >= W, and its clock is < W. Mail
// delivered for the next window therefore always lands in the future of the
// destination's clock.
package sim

import (
	"fmt"
	"sort"
)

// xmsg is one buffered cross-shard message. Pointer fields are cleared on
// delivery so drained lanes retain nothing.
type xmsg struct {
	t    Time
	kind uint8
	c    *Counter    // xAdd
	n    int64       // xAdd amount
	e    *Event      // xFire
	fn   func()      // xCall
	h    PostHandler // xHook
	a, b int64       // xHook operands
}

const (
	xAdd  uint8 = iota // c.Add(n) at t on the destination shard
	xFire              // e.Fire() at t
	xCall              // fn() at t
	xHook              // h.RunPost(a, b) at t
)

// PostHandler receives delivered PostHook messages: the closure-free
// cross-shard call for high-volume paths (one handler object, two integer
// operands, no allocation per post beyond the lane slot).
type PostHandler interface {
	RunPost(a, b int64)
}

// postTo validates the conservative contract and returns the lane for dst.
//
//bgplint:hot
func (sh *Shard) postTo(dst *Shard, t Time) *[]xmsg {
	if dst == sh {
		panic("sim: cross-shard post to own shard; schedule locally")
	}
	if dst.hub && !sh.hub {
		// Hubs run after the peer phase of the same window.
		if t < sh.now {
			panic(fmt.Sprintf("sim: post at %v before now %v", t, sh.now))
		}
	} else if t < sh.now+sh.k.lookahead {
		panic(fmt.Sprintf("sim: post at %v violates lookahead %v from now %v",
			t, sh.k.lookahead, sh.now))
	}
	for int(dst.id) >= len(sh.out) {
		sh.out = append(sh.out, nil)
	}
	return &sh.out[dst.id]
}

// PostAdd schedules c.Add(n) at absolute time t on c's shard, which must not
// be the calling shard (use AddAt for local adds). Peer destinations require
// t >= now + lookahead; hub destinations only t >= now.
//
//bgplint:hot
func (sh *Shard) PostAdd(t Time, c *Counter, n int64) {
	c.check()
	lane := sh.postTo(c.sh, t)
	*lane = append(*lane, xmsg{t: t, kind: xAdd, c: c, n: n})
}

// PostFire schedules e.Fire() at absolute time t on e's shard.
func (sh *Shard) PostFire(t Time, e *Event) {
	e.check()
	lane := sh.postTo(e.sh, t)
	*lane = append(*lane, xmsg{t: t, kind: xFire, e: e})
}

// PostCall schedules fn() at absolute time t on dst. The callback runs under
// dst's virtual-CPU token with dst's clock at t; it must touch only dst's
// objects.
func (sh *Shard) PostCall(t Time, dst *Shard, fn func()) {
	lane := sh.postTo(dst, t)
	*lane = append(*lane, xmsg{t: t, kind: xCall, fn: fn})
}

// PostHook schedules h.RunPost(a, b) at absolute time t on dst: the
// pointer-lean PostCall for per-chunk hot paths.
//
//bgplint:hot
func (sh *Shard) PostHook(t Time, dst *Shard, h PostHandler, a, b int64) {
	lane := sh.postTo(dst, t)
	*lane = append(*lane, xmsg{t: t, kind: xHook, h: h, a: a, b: b})
}

// deliver enqueues one merged message on the shard's event queue. The
// caller (the controller, between phases) guarantees t > sh.now, so the
// entry always belongs in the future queue, never the same-instant ring.
func (sh *Shard) deliver(m *xmsg) {
	switch m.kind {
	case xAdd:
		sh.queue.push(m.t, entry{kind: eAdd, idx: sh.newAdd(m.c, m.n)})
	case xFire:
		e := m.e
		sh.queue.push(m.t, entry{kind: eFn, idx: sh.newCb(e.Fire)})
	case xCall:
		sh.queue.push(m.t, entry{kind: eFn, idx: sh.newCb(m.fn)})
	case xHook:
		var i uint32
		if n := len(sh.hookFree); n > 0 {
			i = sh.hookFree[n-1]
			sh.hookFree = sh.hookFree[:n-1]
			sh.hooks[i] = postHook{h: m.h, a: m.a, b: m.b}
		} else {
			sh.hooks = append(sh.hooks, postHook{h: m.h, a: m.a, b: m.b})
			i = uint32(len(sh.hooks) - 1)
		}
		sh.queue.push(m.t, entry{kind: eHook, idx: i})
	}
}

// deliverMail drains every (src, dst) lane: for each destination, lanes are
// concatenated in source-shard order into mergeBuf, stable-sorted by
// timestamp (preserving source order and lane FIFO at equal times), and
// delivered. Runs only on the controller goroutine between phases, when no
// shard is executing.
func (k *Kernel) deliverMail() {
	for _, dst := range k.shards {
		buf := k.mergeBuf[:0]
		for _, src := range k.shards {
			if int(dst.id) >= len(src.out) {
				continue
			}
			lane := src.out[int(dst.id)]
			if len(lane) == 0 {
				continue
			}
			buf = append(buf, lane...)
			clear(lane)
			src.out[int(dst.id)] = lane[:0]
		}
		if len(buf) == 0 {
			continue
		}
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].t < buf[j].t })
		for i := range buf {
			dst.deliver(&buf[i])
		}
		clear(buf)
		k.mergeBuf = buf[:0]
	}
}

// minPending returns the earliest runnable instant across all shards: the
// shard's clock if its same-instant ring holds work (Spawn seeds resumes on
// the ring before the first Run), else its queue minimum. ok is false when no
// shard has anything pending — with empty lanes (always true between
// epochs) that means the simulation is finished or deadlocked.
func (k *Kernel) minPending() (Time, bool) {
	var t Time
	ok := false
	for _, sh := range k.shards {
		var st Time
		if !sh.ring.empty() {
			st = sh.now
		} else if qt, ok := sh.queue.peek(); ok {
			st = qt
		} else {
			continue
		}
		if !ok || st < t {
			t, ok = st, true
		}
	}
	return t, ok
}

// anyBlocked reports whether any shard has parked waiters.
func (k *Kernel) anyBlocked() bool {
	for _, sh := range k.shards {
		if sh.blocked > 0 {
			return true
		}
	}
	return false
}

// startWorker launches the shard's window worker for the duration of one
// sharded Run. The worker executes exactly one runWindow per start-channel
// receive and owns no state of its own: the start send happens-before the
// window and the done receive happens-after it, so the shard's entire state
// stays single-threaded along the start/done chain. Workers exist only
// while Run executes (stopWorker closes start), so an idle pooled kernel
// holds no goroutines. This is the bgplint-sanctioned goroutine launch in
// this file; see the package comment in shard.go.
func (sh *Shard) startWorker() {
	// The worker sees only these local channel values: the sh.start/sh.done
	// fields are controller-side bookkeeping (stopWorker nils them with no
	// ordering relative to a worker that is still unwinding its range loop).
	start := make(chan Time)
	done := make(chan struct{})
	sh.start, sh.done = start, done
	go func() {
		for bound := range start {
			sh.runWindow(bound)
			done <- struct{}{}
		}
	}()
}

func (sh *Shard) stopWorker() {
	close(sh.start)
	sh.start, sh.done = nil, nil
}

// runSharded is Run for kernels with more than one shard: the conservative
// epoch controller. Each iteration computes the window [T, W), runs every
// peer shard's window (in parallel on the workers, or sequentially under
// noShard), delivers the mail they produced, then runs hub shards one at a
// time (each seeing the merged peer traffic for the window), and delivers
// again so hub output reaches the peers' next window. The committed order is
// a pure function of the simulation: noShard and the parallel execution are
// bit-identical by construction.
func (k *Kernel) runSharded() error {
	if k.lookahead <= 0 {
		return fmt.Errorf("sim: sharded Run without lookahead; call SetLookahead")
	}
	parallel := !k.noShard
	var peers, hubs []*Shard
	for _, sh := range k.shards {
		if sh.hub {
			hubs = append(hubs, sh)
		} else {
			peers = append(peers, sh)
		}
	}
	if parallel {
		// Shard 0's windows run on the controller goroutine itself; workers
		// cover the rest of the peer phase. Hubs run serially on the
		// controller, so they need no workers.
		for _, sh := range peers[1:] {
			sh.startWorker()
		}
		defer func() {
			for _, sh := range peers[1:] {
				sh.stopWorker()
			}
		}()
	}

	// Pre-run posts (setup code may PostCall before Run) must be delivered
	// before the first window is computed.
	k.deliverMail()

	for {
		t, ok := k.minPending()
		if !ok {
			if k.anyBlocked() {
				return k.deadlockError()
			}
			return nil
		}
		w := t + k.lookahead

		if parallel {
			for _, sh := range peers[1:] {
				sh.start <- w
			}
			peers[0].runWindow(w)
			for _, sh := range peers[1:] {
				<-sh.done
			}
		} else {
			for _, sh := range peers {
				sh.runWindow(w)
			}
		}
		if err := k.checkFailure(); err != nil {
			return err
		}
		// Peer output: same-window mail into hubs, next-window mail between
		// peers. Both must land before the hubs run / the next window starts.
		k.deliverMail()

		for _, sh := range hubs {
			sh.runWindow(w)
		}
		if err := k.checkFailure(); err != nil {
			return err
		}
		// Hub output (t >= now + L >= W) feeds the next window.
		k.deliverMail()
	}
}
