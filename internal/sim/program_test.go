package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestProgramRunsWithoutGoroutine checks a pure-program workload completes
// through Run's callback loop alone and observes the same virtual clock as
// the blocking equivalent.
func TestProgramRunsWithoutGoroutine(t *testing.T) {
	k := New()
	var done Time
	k.SpawnProgram("prog", func(p *Proc) {
		p.SleepThen(3*Nanosecond, func() {
			p.SleepThen(0, func() {
				done = p.Now()
			})
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3*Nanosecond {
		t.Fatalf("program finished at %v, want 3ns", done)
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs left registered after completion", len(k.procs))
	}
}

// TestProgramZeroSleepQueuesBehindPending verifies SleepThen(0) schedules
// (never runs inline), exactly like Proc.Sleep(0): a callback already queued
// at the same instant runs first.
func TestProgramZeroSleepQueuesBehindPending(t *testing.T) {
	k := New()
	var order []string
	k.SpawnProgram("prog", func(p *Proc) {
		k.At(k.Now(), func() { order = append(order, "queued") })
		p.SleepThen(0, func() { order = append(order, "resumed") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "queued,resumed" {
		t.Fatalf("order %q, want queued,resumed", got)
	}
}

// TestProgramWaitFastPathsInline verifies the no-yield fast paths: a fired
// event and a satisfied counter continue synchronously, consuming no virtual
// time and no queue entry.
func TestProgramWaitFastPathsInline(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	ev.Fire()
	c := k.NewCounter("c")
	c.Add(5)
	ran := false
	k.SpawnProgram("prog", func(p *Proc) {
		p.WaitThen(ev, func() {
			p.WaitGEThen(c, 5, func() {
				p.SleepUntilThen(p.Now()-Nanosecond, func() { ran = true })
			})
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fast-path continuations did not run")
	}
}

// TestProgramPanicFailsRun checks a panic in a continuation aborts the
// simulation with the same process-panic error a goroutine body produces.
func TestProgramPanicFailsRun(t *testing.T) {
	k := New()
	k.SpawnProgram("bad", func(p *Proc) {
		p.SleepThen(Nanosecond, func() { panic("boom") })
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "process bad panicked: boom") {
		t.Fatalf("got %v, want process-panic failure", err)
	}
}

// TestProgramTailCallViolationPanics checks the contract guard: arming two
// resumes from one activation is a transcription bug and must fail loudly.
func TestProgramTailCallViolationPanics(t *testing.T) {
	k := New()
	k.SpawnProgram("bad", func(p *Proc) {
		p.SleepThen(Nanosecond, func() {})
		p.SleepThen(Nanosecond, func() {}) // second arm in the same activation
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "resume already pending") {
		t.Fatalf("got %v, want tail-call contract panic", err)
	}
}

// TestProgramBlockingPrimitivePanics checks a blocking primitive on an
// inline process fails loudly instead of corrupting the token protocol.
func TestProgramBlockingPrimitivePanics(t *testing.T) {
	k := New()
	k.SpawnProgram("bad", func(p *Proc) { p.Sleep(Nanosecond) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "blocking primitive called on program process") {
		t.Fatalf("got %v, want blocking-primitive panic", err)
	}
}

// TestProgramReferenceModeUsesGoroutines checks noProgram routes the same
// body through Spawn and produces the same result.
func TestProgramReferenceModeUsesGoroutines(t *testing.T) {
	for _, noProgram := range []bool{false, true} {
		k := New()
		k.SetNoProgram(noProgram)
		var at Time
		p := k.SpawnProgram("prog", func(p *Proc) {
			p.SleepThen(2*Nanosecond, func() { at = p.Now() })
		})
		if p.Inline() == noProgram {
			t.Fatalf("noProgram=%v: Inline()=%v", noProgram, p.Inline())
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if at != 2*Nanosecond {
			t.Fatalf("noProgram=%v: finished at %v", noProgram, at)
		}
	}
}

// TestBatchedWakeOrder fires an event and crosses a counter threshold with
// many waiters each (program, plan, and goroutine procs mixed) and checks
// release order is registration order — the batched ring append must be
// byte-for-byte the order N individual wakes would have produced.
func TestBatchedWakeOrder(t *testing.T) {
	k := New()
	ev := k.NewEvent("ev")
	c := k.NewCounter("c")
	var order []string
	for i := 0; i < 9; i++ {
		name := fmt.Sprintf("w%d", i)
		switch i % 3 {
		case 0:
			k.Spawn(name, func(p *Proc) {
				p.Wait(ev)
				p.WaitGE(c, 1)
				order = append(order, name)
			})
		case 1:
			k.SpawnProgram(name, func(p *Proc) {
				p.WaitThen(ev, func() {
					p.WaitGEThen(c, 1, func() { order = append(order, name) })
				})
			})
		case 2:
			// Registered via At(now) so the subscription lands at the same
			// t=0 ring position the neighboring procs' first activations do.
			k.At(k.Now(), func() {
				ev.OnFire(func() { c.OnGE(1, func() { order = append(order, name) }) })
			})
		}
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(Nanosecond)
		ev.Fire()
		p.Sleep(Nanosecond)
		c.Add(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "w0,w1,w2,w3,w4,w5,w6,w7,w8"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("wake order %q, want %q", got, want)
	}
}
