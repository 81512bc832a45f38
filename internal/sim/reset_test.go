package sim

import (
	"fmt"
	"strings"
	"testing"
)

// expectPanic runs fn and requires it to panic with a message containing
// want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestResetReplaysIdentically is the reuse half of the determinism
// guarantee: the stress workload replayed on a Reset kernel must produce a
// trace bit-identical to the fresh kernel's, in every execution mode. Two
// reuses per mode also cover reuse-of-a-reuse.
func TestResetReplaysIdentically(t *testing.T) {
	const seed = 17
	for _, mode := range stressModes {
		k := New()
		fresh := stressTraceOn(t, seed, mode, k)
		if len(fresh) == 0 {
			t.Fatalf("%s: empty trace", mode.name)
		}
		for reuse := 1; reuse <= 2; reuse++ {
			k.Reset()
			got := stressTraceOn(t, seed, mode, k)
			if len(got) != len(fresh) {
				t.Fatalf("%s reuse %d: %d records, fresh has %d",
					mode.name, reuse, len(got), len(fresh))
			}
			for i := range fresh {
				if got[i] != fresh[i] {
					t.Fatalf("%s reuse %d diverges from fresh at record %d: %+v vs %+v",
						mode.name, reuse, i, got[i], fresh[i])
				}
			}
		}
	}
}

// TestResetDeadlockReportMatchesFresh checks the failure surface survives
// reuse too: a deadlock on a reused kernel names the same processes, waits,
// and times as on a fresh one.
func TestResetDeadlockReportMatchesFresh(t *testing.T) {
	deadlock := func(k *Kernel) error {
		ev := k.NewEvent("missing")
		c := k.NewCounter("starved")
		k.Spawn("waiter.ev", func(p *Proc) {
			p.Sleep(Nanosecond)
			p.Wait(ev)
		})
		k.Spawn("waiter.ge", func(p *Proc) { p.WaitGE(c, 3) })
		k.SpawnProgram("waiter.prog", func(p *Proc) {
			p.WaitThen(ev, func() { t.Error("waiter.prog resumed") })
		})
		return k.Run()
	}
	fresh := New()
	base := deadlock(fresh)
	if base == nil {
		t.Fatal("expected deadlock")
	}

	reused := New()
	c := reused.NewCounter("warmup")
	reused.Spawn("warm", func(p *Proc) {
		p.Sleep(Nanosecond)
		c.Add(1)
	})
	if err := reused.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	reused.Reset()
	if err := deadlock(reused); err == nil || err.Error() != base.Error() {
		t.Fatalf("reused kernel deadlock report %q != fresh %q", err, base)
	}
}

// TestResetStaleHandlesPanic: events, counters, and procs are carved from
// the kernel arena, so a handle kept across Reset points into recycled
// storage. Every use must fail loudly and deterministically instead of
// corrupting the next run.
func TestResetStaleHandlesPanic(t *testing.T) {
	k := New()
	ev := k.NewEvent("stale.ev")
	c := k.NewCounter("stale.c")
	var p *Proc
	k.SpawnProgram("stale.p", func(q *Proc) { p = q })
	k.Spawn("fire", func(q *Proc) {
		q.Sleep(Nanosecond)
		ev.Fire()
		c.Add(1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	k.Reset()

	expectPanic(t, "event handle (stale.ev) used across Kernel.Reset", func() { ev.Fire() })
	expectPanic(t, "counter handle (stale.c) used across Kernel.Reset", func() { c.Add(1) })
	expectPanic(t, "counter handle (stale.c) used across Kernel.Reset", func() { k.AddAt(0, c, 1) })
	expectPanic(t, "process handle (stale.p) used across Kernel.Reset", func() {
		p.SleepThen(Nanosecond, func() {})
	})

	// Fresh handles carved after the Reset work normally.
	ev2 := k.NewEvent("fresh.ev")
	k.Spawn("fresh", func(q *Proc) { ev2.Fire() })
	if err := k.Run(); err != nil {
		t.Fatalf("post-reset run: %v", err)
	}
	if !ev2.Fired() {
		t.Fatal("fresh event did not fire")
	}
}

// TestResetRefusesLiveProcs: a deadlocked kernel still owns parked process
// goroutines whose stacks reference arena storage; Reset must refuse to pull
// the arena out from under them.
func TestResetRefusesLiveProcs(t *testing.T) {
	k := New()
	ev := k.NewEvent("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(ev) })
	if err := k.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	expectPanic(t, "Reset with live processes", func() { k.Reset() })
}

// TestResetDuringRunPanics: Reset from inside a callback would rewind the
// clock mid-simulation.
func TestResetDuringRunPanics(t *testing.T) {
	k := New()
	k.At(Nanosecond, func() { k.Reset() })
	expectPanic(t, "Reset during Run", func() { _ = k.Run() })
}
