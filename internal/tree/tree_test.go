package tree

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

func newNet(t *testing.T, dx, dy, dz int) (*sim.Kernel, *Network, hw.Params) {
	t.Helper()
	k := sim.New()
	geom, err := geometry.NewTorus(dx, dy, dz)
	if err != nil {
		t.Fatal(err)
	}
	p := hw.DefaultParams()
	return k, New(k, geom, p), p
}

func TestDepthAndLatency(t *testing.T) {
	_, n, p := newNet(t, 8, 8, 16)
	if n.Depth() != 32 {
		t.Fatalf("depth = %d, want 32", n.Depth())
	}
	if n.Latency() != 32*p.TreeHopLatency {
		t.Fatalf("latency = %v", n.Latency())
	}
}

func TestOpWaitsForAllInjections(t *testing.T) {
	k, n, p := newNet(t, 2, 1, 1) // two nodes
	op := n.NewOp(256)
	var deliveredAt sim.Time = -1
	op.Delivered().OnFire(func() { deliveredAt = k.Now() })

	k.At(sim.Microsecond, op.Inject)
	k.At(5*sim.Microsecond, op.Inject) // straggler gates the combine
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5*sim.Microsecond + sim.TransferTime(256, p.TreeBps) + n.Latency()
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestOpOverInjectionPanics(t *testing.T) {
	k, n, _ := newNet(t, 1, 1, 1)
	op := n.NewOp(16)
	k.At(0, func() {
		op.Inject()
		defer func() {
			if recover() == nil {
				t.Error("extra injection did not panic")
			}
		}()
		op.Inject()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeliveredAtBeforeFirePanics(t *testing.T) {
	_, n, _ := newNet(t, 2, 1, 1)
	op := n.NewOp(16)
	defer func() {
		if recover() == nil {
			t.Error("DeliveredAt before delivery did not panic")
		}
	}()
	op.DeliveredAt()
}

func TestChunksPipelineOnChannel(t *testing.T) {
	// Two back-to-back chunk ops injected at time zero by a single node:
	// the second chunk's channel occupancy queues behind the first, so
	// deliveries are one wire time apart — the channel is the steady-state
	// bottleneck, not the latency.
	k, n, p := newNet(t, 1, 1, 1)
	payload := 16 << 10
	op1 := n.NewOp(payload)
	op2 := n.NewOp(payload)
	var d1, d2 sim.Time
	op1.Delivered().OnFire(func() { d1 = k.Now() })
	op2.Delivered().OnFire(func() { d2 = k.Now() })
	k.At(0, op1.Inject)
	k.At(0, op2.Inject)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wire := p.TreeWireBytes(payload)
	per := sim.TransferTime(wire, p.TreeBps)
	if d2-d1 != per {
		t.Fatalf("delivery spacing %v, want %v", d2-d1, per)
	}
}

func TestTouchTime(t *testing.T) {
	_, n, p := newNet(t, 4, 4, 4)
	got := n.TouchTime(256)
	want := sim.TransferTime(256, p.TreeCoreTouchBps)
	if got != want {
		t.Fatalf("touch = %v, want %v", got, want)
	}
	// A core handling both injection and reception cannot keep up with the
	// tree: 2x touch time per payload must exceed the wire time.
	if 2*n.TouchTime(4096) <= sim.TransferTime(n.WireBytes(4096), p.TreeBps) {
		t.Fatal("single core could saturate inject+receive; contradicts paper §V-B")
	}
	// But a dedicated core for each direction can.
	if n.TouchTime(4096) > sim.TransferTime(n.WireBytes(4096), p.TreeBps) {
		t.Fatal("dedicated core cannot keep up with the tree; contradicts paper §V-B")
	}
}

func TestFullPartitionOp(t *testing.T) {
	k, n, _ := newNet(t, 4, 4, 2) // 32 nodes
	op := n.NewOp(1024)
	fired := false
	op.Delivered().OnFire(func() { fired = true })
	for i := 0; i < 32; i++ {
		k.At(sim.Time(i)*sim.Nanosecond, op.Inject)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("op never delivered")
	}
}
