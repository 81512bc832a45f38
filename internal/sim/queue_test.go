package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// queueHarness drives an eventQueue alongside a reference model: the list
// of pending entries in push order, whose minimum by (time, push index) is
// the exact order the queue must reproduce. Every operation is applied to
// both and checked; entry idx carries the push index so a mismatch names
// the entry that went out of order.
type queueHarness struct {
	t      *testing.T
	q      eventQueue
	ref    []timed // pending entries in push order
	last   Time    // time of the most recent pop (0 after reset)
	pushed uint32
	peeked Time // most recent peek result, or -1 before any peek
}

func newQueueHarness(t *testing.T) *queueHarness {
	return &queueHarness{t: t, peeked: -1}
}

func (h *queueHarness) push(at Time) {
	h.t.Helper()
	if at < h.last {
		h.t.Fatalf("harness bug: push at %d below last %d", at, h.last)
	}
	ent := entry{kind: eFn, idx: h.pushed}
	h.pushed++
	h.q.push(at, ent)
	h.ref = append(h.ref, timed{at, ent})
}

// refMin returns the reference's next entry: the earliest time, and among
// equal times the earliest push.
func (h *queueHarness) refMin() int {
	m := 0
	for i, x := range h.ref {
		if x.t < h.ref[m].t {
			m = i
		}
	}
	return m
}

func (h *queueHarness) peek() {
	h.t.Helper()
	got, ok := h.q.peek()
	if ok != (len(h.ref) > 0) {
		h.t.Fatalf("peek ok=%v with %d pending", ok, len(h.ref))
	}
	if !ok {
		return
	}
	if want := h.ref[h.refMin()].t; got != want {
		h.t.Fatalf("peek = %d, want %d", got, want)
	}
	if h.q.last != h.last {
		h.t.Fatalf("peek moved last from %d to %d", h.last, h.q.last)
	}
	h.peeked = got
}

func (h *queueHarness) pop() {
	h.t.Helper()
	if len(h.ref) == 0 {
		return
	}
	m := h.refMin()
	want := h.ref[m]
	h.ref = append(h.ref[:m], h.ref[m+1:]...)
	if np := h.q.nowPending(); np != (want.t == h.last) {
		h.t.Fatalf("nowPending = %v, next entry at %d, last %d", np, want.t, h.last)
	}
	at, ok := h.q.peek()
	if !ok || at != want.t {
		h.t.Fatalf("peek before pop = %d,%v, want %d", at, ok, want.t)
	}
	if got := h.q.pop(at); got != want.ent {
		h.t.Fatalf("pop at %d = push #%d, want push #%d", at, got.idx, want.ent.idx)
	}
	if h.q.last != want.t {
		h.t.Fatalf("pop left last at %d, want %d", h.q.last, want.t)
	}
	h.last = want.t
}

func (h *queueHarness) shiftAll(d Time) {
	h.t.Helper()
	h.q.shiftAll(d)
	for i := range h.ref {
		h.ref[i].t += d
	}
	h.last += d
	h.peeked = -1
	h.checkDrain()
}

func (h *queueHarness) reset() {
	h.q.reset()
	h.ref = h.ref[:0]
	h.last = 0
	h.peeked = -1
}

// checkDrain compares drain against the reference's full pop order.
func (h *queueHarness) checkDrain() {
	h.t.Helper()
	got := h.q.drain(nil)
	want := slices.Clone(h.ref)
	// A stable sort by time keeps equal times in push order.
	slices.SortStableFunc(want, func(a, b timed) int { return cmp.Compare(a.t, b.t) })
	if len(got) != len(want) {
		h.t.Fatalf("drain returned %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			h.t.Fatalf("drain[%d] = (t=%d, push #%d), want (t=%d, push #%d)",
				i, got[i].t, got[i].ent.idx, want[i].t, want[i].ent.idx)
		}
	}
}

// finish pops everything left and checks the queue ends empty.
func (h *queueHarness) finish() {
	h.t.Helper()
	h.checkDrain()
	for len(h.ref) > 0 {
		h.pop()
	}
	if _, ok := h.q.peek(); ok || h.q.nowPending() {
		h.t.Fatal("queue not empty after popping every reference entry")
	}
}

// delay decodes one byte into a future offset with the spreads the kernel
// produces: zero (a push at last), small, and log-uniform up to 2^40 ps.
func delay(b byte) Time {
	switch b & 3 {
	case 0:
		return 0
	case 1:
		return Time(b >> 2)
	default:
		return Time(1)<<(b>>2%40) + Time(b>>4)
	}
}

// run interprets data as a queue program. Each op byte is followed by up to
// two operand bytes; a truncated tail is ignored.
func (h *queueHarness) run(data []byte) {
	h.t.Helper()
	arg := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	for i := 0; i < len(data); i++ {
		switch op := data[i] % 8; op {
		case 0: // single push
			i++
			h.push(h.last + delay(arg(i)))
		case 1: // same-instant batch
			i += 2
			at := h.last + delay(arg(i-1))
			for n := 1 + int(arg(i))%48; n > 0; n-- {
				h.push(at)
			}
		case 2:
			h.peek()
		case 3: // push below the peeked minimum: the contract is only t >= last
			i++
			if h.peeked > h.last {
				h.push(h.last + Time(arg(i))%(h.peeked-h.last))
			}
		case 4, 5:
			h.pop()
		case 6:
			h.checkDrain()
		case 7:
			i++
			if b := arg(i); b%4 == 0 {
				h.reset()
			} else {
				h.shiftAll(delay(b))
			}
		}
	}
	h.finish()
}

func TestEventQueueScenarios(t *testing.T) {
	t.Run("equal timestamps and batches", func(t *testing.T) {
		h := newQueueHarness(t)
		for i := 0; i < 5; i++ {
			h.push(100)
			h.push(70)
		}
		for i := 0; i < 1000; i++ {
			h.push(Time(200 + i%3))
		}
		h.finish()
	})
	t.Run("push at last mid-drain", func(t *testing.T) {
		h := newQueueHarness(t)
		for i := 0; i < 4; i++ {
			h.push(50)
		}
		h.push(60)
		h.pop()
		h.push(50) // joins the bucket being drained, behind its peers
		h.pop()
		h.push(50)
		h.finish()
	})
	t.Run("push below peeked minimum", func(t *testing.T) {
		h := newQueueHarness(t)
		h.push(10)
		h.pop()
		h.push(1 << 30)
		h.push(1<<30 + 5)
		h.peek() // a window stops here without popping
		h.push(11)
		h.push(1 << 20)
		h.push(1 << 30)
		h.finish()
	})
	t.Run("reuse after reset", func(t *testing.T) {
		h := newQueueHarness(t)
		for i := 0; i < 100; i++ {
			h.push(Time(1) << (i % 40))
		}
		for i := 0; i < 30; i++ {
			h.pop()
		}
		h.reset()
		h.push(3)
		h.push(1)
		h.push(1)
		h.finish()
	})
	t.Run("shift with a partly drained instant", func(t *testing.T) {
		h := newQueueHarness(t)
		for i := 0; i < 3; i++ {
			h.push(40)
		}
		h.push(1000)
		h.pop()
		h.shiftAll(12345)
		h.push(h.last)
		h.finish()
	})
}

// TestEventQueueMatchesReference runs seeded random programs through the
// queue and the reference model.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(2048))
		rng.Read(data)
		newQueueHarness(t).run(data)
	}
}

// FuzzEventQueue explores queue programs beyond the seeded ones; the
// committed corpus under testdata/fuzz covers the scenario shapes above.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 2, 40, 4, 0, 0, 4, 4, 4})
	f.Add([]byte{0, 200, 2, 3, 17, 3, 1, 4, 4, 4})
	f.Add([]byte{1, 6, 20, 4, 7, 9, 4, 7, 0, 1, 3, 3, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		newQueueHarness(t).run(data)
	})
}
