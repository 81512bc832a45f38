package sim

import (
	"math"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks. These measure the raw event-scheduling machinery —
// the denominator of every figure regeneration — in events (or yields) per
// second. CI runs them as a smoke test; the numbers recorded in BENCH_SIM.json
// and DESIGN.md §9 come from -benchtime=2s runs.

// BenchmarkAtNow measures the dominant scheduling case: an event scheduled at
// the current virtual time (Event.Fire fan-out, counter wakeups, Proc.run
// rendezvous all take this path).
func BenchmarkAtNow(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	// Schedule-and-drain in batches so the queue stays small (as it does in
	// real collectives) rather than growing to b.N.
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.At(k.Now(), fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtFuture measures heap-path scheduling: every event lands at a
// distinct future timestamp, so nothing can take a same-time fast path.
func BenchmarkAtFuture(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		base := k.Now()
		for i := 0; i < m; i++ {
			k.At(base+Time(i+1)*Nanosecond, fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtHold measures the event queue under the pending-set shape of
// the paper sweep, which BenchmarkAtFuture's strictly increasing stamps do
// not represent: a hold model keeps about 6k future events whose delays are
// log-uniform over 2^17–2^26 ps, and one fired event in 1400 also schedules
// a same-instant batch of 1k–4k entries (a collective phase waking a whole
// tree level). ns/op is per fired event, batch entries included.
func BenchmarkAtHold(b *testing.B) {
	const (
		pending    = 6144
		batchEvery = 1400
	)
	rng := rand.New(rand.NewSource(1))
	logDelay := func() Time { return Time(math.Exp2(17 + 9*rng.Float64())) }
	var delays [4096]Time
	for i := range delays {
		delays[i] = logDelay()
	}
	k := New()
	fired, singles := 0, 0
	count := func() bool {
		if fired++; fired == b.N {
			b.StopTimer()
		}
		return fired < b.N
	}
	nop := func() { count() }
	var hold func()
	hold = func() {
		if !count() {
			return
		}
		singles++
		k.After(delays[singles&(len(delays)-1)], hold)
		if singles%batchEvery == 0 {
			at := k.Now() + delays[(singles/batchEvery)&(len(delays)-1)]
			for n := 1024 + (singles/batchEvery*977)%3072; n > 0; n-- {
				k.At(at, nop)
			}
		}
	}
	for i := 0; i < pending; i++ {
		k.After(logDelay(), hold)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAtMixed interleaves same-time and future scheduling the way a
// pipelined collective does: each popped event reschedules one future hop and
// fans out two same-time wakeups.
func BenchmarkAtMixed(b *testing.B) {
	k := New()
	b.ReportAllocs()
	nop := func() {}
	left := b.N
	var step func()
	step = func() {
		if left <= 0 {
			return
		}
		left--
		k.At(k.Now(), nop)
		k.At(k.Now(), nop)
		k.After(10*Nanosecond, step)
	}
	step()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFire measures one-shot event fan-out: W waiters parked on an
// event, released by a single Fire.
func BenchmarkEventFire(b *testing.B) {
	const waiters = 16
	k := New()
	nop := func() {}
	b.ReportAllocs()
	for n := 0; n < b.N; n += waiters {
		ev := k.NewEvent("e")
		for i := 0; i < waiters; i++ {
			ev.OnFire(nop)
		}
		ev.Fire()
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterWake measures the counter threshold wake path: a producer
// Add releasing one waiter per iteration.
func BenchmarkCounterWake(b *testing.B) {
	k := New()
	c := k.NewCounter("bytes")
	nop := func() {}
	b.ReportAllocs()
	const batch = 1024
	total := int64(0)
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			c.OnGE(total+int64(i)+1, nop)
		}
		for i := 0; i < m; i++ {
			c.Add(1)
		}
		total += int64(m)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcYield measures the coroutine handoff: one process sleeping
// zero-duration b.N times, i.e. two kernel<->process control transfers per
// iteration.
func BenchmarkProcYield(b *testing.B) {
	k := New()
	b.ReportAllocs()
	k.Spawn("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(0)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcWaitGE measures the blocking-wait hot path used by the DMA
// byte counters: a consumer WaitGE released by a producer Add, ping-pong.
func BenchmarkProcWaitGE(b *testing.B) {
	k := New()
	c := k.NewCounter("dma")
	b.ReportAllocs()
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.WaitGE(c, int64(i+1))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
			p.Sleep(0)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures process creation + first schedule + exit.
func BenchmarkSpawn(b *testing.B) {
	k := New()
	b.ReportAllocs()
	const batch = 256
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.Spawn("w", func(p *Proc) {})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramYield is BenchmarkProcYield for an inline program: b.N
// zero-duration sleeps executed as queue callbacks, no goroutine involved.
// The gap between this and BenchmarkProcYield is the per-park saving of
// program mode.
func BenchmarkProgramYield(b *testing.B) {
	k := New()
	b.ReportAllocs()
	k.SpawnProgram("yielder", func(p *Proc) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				return
			}
			p.SleepThen(0, func() { step(i + 1) })
		}
		step(0)
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProgramWaitGE is BenchmarkProcWaitGE with the consumer as an
// inline program: the producer's Add releases a stored continuation instead
// of a parked goroutine.
func BenchmarkProgramWaitGE(b *testing.B) {
	k := New()
	c := k.NewCounter("dma")
	b.ReportAllocs()
	k.SpawnProgram("consumer", func(p *Proc) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				return
			}
			p.WaitGEThen(c, int64(i+1), func() { step(i + 1) })
		}
		step(0)
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
			p.Sleep(0)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnProgram measures inline program creation + first activation +
// exit: no worker checkout, the Proc comes from the kernel arena.
func BenchmarkSpawnProgram(b *testing.B) {
	k := New()
	b.ReportAllocs()
	const batch = 256
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.SpawnProgram("w", func(p *Proc) {})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaAlloc measures slab allocation of the kernel-lifetime
// objects (event + counter per iteration) — the path every collective state
// constructor takes.
func BenchmarkArenaAlloc(b *testing.B) {
	k := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.NewEvent("e")
		_ = k.NewCounter("c")
	}
}

// BenchmarkBatchedCounterWake measures a threshold crossing that releases 32
// waiters at one instant: the bookkeeping pass plus one bulk ring append.
func BenchmarkBatchedCounterWake(b *testing.B) {
	const waiters = 32
	k := New()
	nop := func() {}
	b.ReportAllocs()
	for n := 0; n < b.N; n += waiters {
		c := k.NewCounter("bytes")
		for i := 0; i < waiters; i++ {
			c.OnGE(1, nop)
		}
		c.Add(1)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
