package serve

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

func init() { coll.Register() }

// spin yields until cond holds, reporting false (and a test error) if it
// never does. Pool state changes are driven by goroutines already running,
// so yielding (not sleeping) is enough and keeps the wall clock out of the
// tests. Callers run inside runConcurrently goroutines, so spin must not
// Fatal; on a false return the caller still performs its unblocking step
// (closing the release channel) so a failed test cannot deadlock.
func spin(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	for i := 0; i < 50_000_000; i++ {
		if cond() {
			return true
		}
		runtime.Gosched()
	}
	t.Errorf("condition %q never held", what)
	return false
}

// TestCoalescingExactlyOnce is the acceptance test for the coalescing
// protocol: N concurrent identical cold requests execute the simulation
// exactly once. The injected runCell blocks until every request has been
// classified, so all N demonstrably overlap.
func TestCoalescingExactlyOnce(t *testing.T) {
	const n = 8
	var calls atomic.Int32
	release := make(chan struct{})
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 4, 32, 32, func(c bench.Cell) (sim.Time, error) {
		calls.Add(1)
		<-release
		return 42_000, nil
	})
	defer p.Close()

	cell := testCell()
	runConcurrently(n+1, func(i int) {
		if i == n {
			// Release only after all n requests are classified — every one
			// of them was in the miss-or-coalesce decision concurrently.
			spin(t, "all classified", func() bool {
				return metrics.Misses.Load()+metrics.Coalesced.Load() == n
			})
			close(release) // even on spin failure, so the test cannot hang
			return
		}
		entries, _, err := p.Submit(fmt.Sprintf("client-%d", i), []bench.Cell{cell})
		if err != nil {
			t.Errorf("submit %d: %v", i, err)
			return
		}
		if entries[0].PS != 42_000 {
			t.Errorf("submit %d: PS = %d", i, entries[0].PS)
		}
	})

	if got := calls.Load(); got != 1 {
		t.Fatalf("simulation executed %d times for %d identical requests", got, n)
	}
	if m, c := metrics.Misses.Load(), metrics.Coalesced.Load(); m != 1 || c != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", m, c, n-1)
	}
	// A repeat is now a pure store hit.
	_, hits, err := p.Submit("late", []bench.Cell{cell})
	if err != nil || hits != 1 {
		t.Fatalf("repeat: hits=%d err=%v", hits, err)
	}
}

// distinctCells returns n cells that differ only in payload (distinct keys).
func distinctCells(n int) []bench.Cell {
	out := make([]bench.Cell, n)
	for i := range out {
		out[i] = testCell()
		out[i].Arg = 1024 * (i + 1)
	}
	return out
}

// TestQueueBackpressure fills the one-worker pool to its queue bound and
// checks the next miss is refused atomically — ErrBusy, nothing enqueued.
// Steps are sequenced by explicit signals (the worker says when it holds the
// first cell; each filler waits its turn) so every condition the test spins
// on is stable once reached, not a transient gauge reading.
func TestQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 2, 16, func(c bench.Cell) (sim.Time, error) {
		started <- struct{}{}
		<-release
		return 1, nil
	})
	defer p.Close()

	cells := distinctCells(4)
	sig1, sig2 := make(chan struct{}), make(chan struct{})
	runConcurrently(4, func(i int) {
		switch i {
		case 0: // occupies the worker
			p.Submit("a", []bench.Cell{cells[0]})
		case 1: // first queue slot
			<-sig1
			p.Submit("b", []bench.Cell{cells[1]})
		case 2: // second queue slot
			<-sig2
			p.Submit("c", []bench.Cell{cells[2]})
		case 3: // coordinator
			defer close(release) // even on spin failure, so the test cannot hang
			<-started            // worker holds cells[0]; queue is empty
			close(sig1)
			ok := spin(t, "one queued", func() bool { return metrics.QueueDepth.Load() == 1 })
			close(sig2)
			if !ok || !spin(t, "queue full", func() bool { return metrics.QueueDepth.Load() == 2 }) {
				return
			}
			// Queue at bound, worker busy: the next miss must bounce.
			if _, _, err := p.Submit("d", []bench.Cell{cells[3]}); err != ErrBusy {
				t.Errorf("over-bound submit: err = %v, want ErrBusy", err)
			}
		}
	})
	if metrics.Rejected.Load() != 1 {
		t.Fatalf("rejected = %d", metrics.Rejected.Load())
	}
	// The refused cell was never enqueued nor cached.
	if _, ok := store.Get(KeyCell(cells[3])); ok {
		t.Fatal("rejected cell reached the store")
	}
}

// TestPerClientQuota pins fairness: one client saturating its own quota gets
// 429 while another client's requests still go through.
func TestPerClientQuota(t *testing.T) {
	release := make(chan struct{})
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 32, 2, func(c bench.Cell) (sim.Time, error) {
		<-release
		return 1, nil
	})
	defer p.Close()

	cells := distinctCells(4)
	var politeErr error
	runConcurrently(4, func(i int) {
		switch i {
		case 0:
			p.Submit("greedy", []bench.Cell{cells[0]})
		case 1:
			p.Submit("greedy", []bench.Cell{cells[1]})
		case 2: // polite client submits while greedy is saturated; blocks until release
			if spin(t, "greedy at quota", func() bool { return metrics.Misses.Load() == 2 }) {
				_, _, politeErr = p.Submit("polite", []bench.Cell{cells[3]})
			}
		case 3: // coordinator: greedy's third must bounce, then unblock everyone
			// >=: the polite miss (the third) may classify before we look.
			if spin(t, "greedy at quota", func() bool { return metrics.Misses.Load() >= 2 }) {
				if _, _, err := p.Submit("greedy", []bench.Cell{cells[2]}); err != ErrBusy {
					t.Errorf("third greedy submit: err = %v, want ErrBusy", err)
				}
				// Wait for the polite client's classification so its admission
				// provably happened while greedy was still saturated.
				spin(t, "polite classified", func() bool { return metrics.Misses.Load() == 3 })
			}
			close(release) // even on spin failure, so the test cannot hang
		}
	})
	if politeErr != nil {
		t.Errorf("polite client refused: %v", politeErr)
	}
	// Quota frees on completion: greedy can submit again.
	if _, _, err := p.Submit("greedy", []bench.Cell{cells[2]}); err != nil {
		t.Fatalf("post-drain greedy submit: %v", err)
	}
}

// TestBatchAdmissionAllOrNothing submits a batch larger than the queue and
// checks no partial state leaks: no flights, no quota consumed.
func TestBatchAdmissionAllOrNothing(t *testing.T) {
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 2, 16, func(c bench.Cell) (sim.Time, error) { return 1, nil })
	defer p.Close()

	if _, _, err := p.Submit("x", distinctCells(3)); err != ErrBusy {
		t.Fatalf("oversized batch: err = %v, want ErrBusy", err)
	}
	if metrics.Misses.Load() != 0 || metrics.QueueDepth.Load() != 0 {
		t.Fatalf("partial admission: misses=%d depth=%d", metrics.Misses.Load(), metrics.QueueDepth.Load())
	}
	// A batch that fits (duplicates coalesce intra-batch: 3 cells, 2 keys).
	cells := distinctCells(2)
	batch := []bench.Cell{cells[0], cells[1], cells[0]}
	entries, _, err := p.Submit("x", batch)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0] != entries[2] {
		t.Fatal("intra-batch duplicate resolved differently")
	}
	if metrics.Coalesced.Load() != 1 || metrics.Misses.Load() != 2 {
		t.Fatalf("intra-batch: coalesced=%d misses=%d", metrics.Coalesced.Load(), metrics.Misses.Load())
	}
}

// TestErrorFlightsRetry pins that failed computations are not cached: the
// next identical request runs again.
func TestErrorFlightsRetry(t *testing.T) {
	var calls atomic.Int32
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 8, 8, func(c bench.Cell) (sim.Time, error) {
		if calls.Add(1) == 1 {
			return 0, fmt.Errorf("transient")
		}
		return 7, nil
	})
	defer p.Close()

	cell := testCell()
	if _, _, err := p.Submit("x", []bench.Cell{cell}); err == nil {
		t.Fatal("first submit should fail")
	}
	entries, _, err := p.Submit("x", []bench.Cell{cell})
	if err != nil || entries[0].PS != 7 {
		t.Fatalf("retry: %+v, %v", entries, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

// TestPanicBecomesError pins the recover wrapper: a panicking cell yields an
// error response, and the pool keeps serving afterwards.
func TestPanicBecomesError(t *testing.T) {
	var calls atomic.Int32
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 8, 8, func(c bench.Cell) (sim.Time, error) {
		if calls.Add(1) == 1 {
			panic("boom")
		}
		return 9, nil
	})
	defer p.Close()

	cell := testCell()
	if _, _, err := p.Submit("x", []bench.Cell{cell}); err == nil {
		t.Fatal("panicking cell should surface an error")
	}
	entries, _, err := p.Submit("x", []bench.Cell{cell})
	if err != nil || entries[0].PS != 9 {
		t.Fatalf("pool dead after panic: %+v, %v", entries, err)
	}
}

// TestWorldPoolGrowthUnderMixedConfigs drives the real kernel through the
// server worker pool with concurrent misses on MIXED partition shapes — the
// worldpool's Reconfigure-on-lease growth path — and checks every answer
// against a direct fresh measurement. Run under -race this is the
// satellite check that cross-config world reuse is safe when the serving
// layer, not a benchmark loop, is the driver.
func TestWorldPoolGrowthUnderMixedConfigs(t *testing.T) {
	bench.DrainWorldPool()
	defer bench.DrainWorldPool()

	mkCfg := func(dz int, mode hw.Mode) hw.Config {
		cfg := hw.DefaultConfig()
		cfg.Torus = geometry.Torus{DX: 2, DY: 2, DZ: dz}
		cfg.Mode = mode
		cfg.Functional = false
		return cfg
	}
	var cells []bench.Cell
	for _, cfg := range []hw.Config{mkCfg(2, hw.Quad), mkCfg(4, hw.Quad), mkCfg(2, hw.SMP), mkCfg(4, hw.Dual)} {
		for _, arg := range []int{4 << 10, 64 << 10} {
			cells = append(cells, bench.Cell{
				Experiment: "adhoc", Series: "growth",
				Cfg: cfg, Kind: bench.CellBcast, Algo: mpi.BcastTorusShaddr,
				Arg: arg, Iters: 1,
			})
		}
	}

	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 4, 64, 64, func(c bench.Cell) (sim.Time, error) {
		return c.Run(bench.RunMode{})
	})
	defer p.Close()

	// Concurrent single-cell submissions from distinct clients: workers
	// interleave configs, so pooled worlds get leased across shapes.
	got := make([]Entry, len(cells))
	runConcurrently(len(cells), func(i int) {
		entries, _, err := p.Submit(fmt.Sprintf("c%d", i%3), []bench.Cell{cells[i]})
		if err != nil {
			t.Errorf("cell %d: %v", i, err)
			return
		}
		got[i] = entries[0]
	})
	if t.Failed() {
		t.FailNow()
	}
	for i, c := range cells {
		want, err := bench.MeasureBcastRun(c.Cfg, c.Algo, c.Arg, c.Iters, bench.RunMode{})
		if err != nil {
			t.Fatal(err)
		}
		if got[i].PS != int64(want) {
			t.Fatalf("cell %d: pooled answer %d ps, fresh answer %d ps — cross-config world reuse changed the result", i, got[i].PS, int64(want))
		}
	}
	if metrics.Misses.Load() != int64(len(cells)) {
		t.Fatalf("misses = %d, want %d distinct cells", metrics.Misses.Load(), len(cells))
	}
}

// TestKeyCollisionNeverServesForeignEntry pins the digest-collision rule: a
// stored entry or an in-flight computation holding a request's key under
// different canonical text is never returned for that request, and the
// request's own result never replaces the holder.
func TestKeyCollisionNeverServesForeignEntry(t *testing.T) {
	var calls atomic.Int32
	store, metrics := NewStore(), NewMetrics()
	p := NewPool(store, metrics, 1, 8, 8, func(c bench.Cell) (sim.Time, error) {
		calls.Add(1)
		return 42_000, nil
	})
	defer p.Close()

	cells := distinctCells(2)
	foreign := Entry{Key: KeyCell(cells[0]), Canon: "v=other\n", PS: 999}
	store.Put(foreign)
	for round := 0; round < 2; round++ {
		entries, hits, err := p.Submit("a", []bench.Cell{cells[0], cells[0]})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries {
			if e.PS != 42_000 || e.Canon != CanonicalCell(cells[0]) {
				t.Fatalf("round %d cell %d: got PS=%d canon=%q, want the request's own result", round, i, e.PS, e.Canon)
			}
		}
		if hits != 0 {
			t.Fatalf("round %d: %d hits on a colliding key", round, hits)
		}
	}
	if got, _ := store.Get(foreign.Key); got != foreign {
		t.Fatalf("stored holder replaced: %+v", got)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("colliding requests ran %d times, want 4 (never cached)", got)
	}

	// An in-flight holder with different canonical text is not joined and
	// stays registered after the colliding request completes.
	key := KeyCell(cells[1])
	held := &flight{key: key, canon: "v=other\n", done: make(chan struct{}), entry: Entry{PS: 999}, cached: true}
	p.mu.Lock()
	p.flights[key] = held
	p.mu.Unlock()
	entries, _, err := p.Submit("b", []bench.Cell{cells[1]})
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].PS != 42_000 {
		t.Fatalf("joined a colliding flight: PS=%d", entries[0].PS)
	}
	p.mu.Lock()
	still := p.flights[key]
	p.mu.Unlock()
	if still != held {
		t.Fatal("colliding request removed the in-flight holder")
	}
	if _, ok := store.Get(key); ok {
		t.Fatal("colliding request stored its result under the held key")
	}
}
