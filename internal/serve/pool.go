// The execution side of the cache: a bounded worker pool with request
// coalescing and per-client admission control.
//
// Classification is the heart. For every requested cell, under ONE lock we
// decide hit (store already has it), coalesce (an identical computation is
// in flight — join it), or miss (create the flight). Because the store
// lookup and the flight-table lookup happen under the same mutex, two
// concurrent identical misses can never both reach a worker: whichever
// classifies first creates the flight, the other finds it. That is the
// exactly-once guarantee the acceptance test pins under -race. Hits and
// joins match the full canonical text, not just the 64-bit key, so a digest
// collision degrades to an uncached recomputation, never a wrong answer.
//
// Admission is all-or-nothing per request: a batch (a sweep, a whole
// figure) either reserves queue slots and client quota for every new flight
// it needs, or creates nothing and reports ErrBusy — so a half-admitted
// figure never wedges the queue. Hits and coalesced joins are free: they
// consume no slot and no quota (the originator of a flight pays for it).
//
// This file is the bgplint-sanctioned goroutine launch site for
// internal/serve (the analogue of bench/parallel.go): workers are launched
// here and joined in Close, and tests fan out through runConcurrently below
// instead of raw go statements.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/sim"
)

// ErrBusy is returned when admission would exceed the queue bound or the
// requesting client's quota; the HTTP layer maps it to 429.
var ErrBusy = errors.New("serve: queue full or client quota exceeded")

// flight is one in-progress computation. All requests for its key and
// canonical text share it; entry/err are written by exactly one worker
// before done is closed.
type flight struct {
	key    string
	canon  string
	cell   bench.Cell
	client string // originator, whose quota the flight consumes
	done   chan struct{}
	entry  Entry
	err    error

	// cached marks a flight registered under key whose result goes to the
	// store. A request whose key is already held by different canonical
	// text — a 64-bit digest collision — runs uncached: it neither joins,
	// replaces nor stores over the holder.
	cached bool
}

// Pool runs cell computations on a fixed set of worker goroutines.
type Pool struct {
	store   *Store
	metrics *Metrics
	runCell func(bench.Cell) (sim.Time, error)

	queueCap  int
	clientCap int
	queue     chan *flight
	wg        sync.WaitGroup

	mu       sync.Mutex
	flights  map[string]*flight
	queued   int            // flights sent to queue, not yet picked up
	byClient map[string]int // outstanding originated flights per client
}

// NewPool starts workers goroutines executing runCell. queueCap bounds
// flights waiting for a worker; clientCap bounds the flights any one client
// may have outstanding. Close joins the workers; Submit must not be called
// after Close.
func NewPool(store *Store, metrics *Metrics, workers, queueCap, clientCap int, runCell func(bench.Cell) (sim.Time, error)) *Pool {
	p := &Pool{
		store:     store,
		metrics:   metrics,
		runCell:   runCell,
		queueCap:  queueCap,
		clientCap: clientCap,
		// The buffer equals the admission bound, so a send under the
		// queued-counter invariant never blocks while holding p.mu.
		queue:    make(chan *flight, queueCap),
		flights:  make(map[string]*flight),
		byClient: make(map[string]int),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// Close drains the queue and joins all workers.
func (p *Pool) Close() {
	close(p.queue)
	p.wg.Wait()
}

// Submit resolves every cell — from the store, from an in-flight identical
// computation, or by enqueueing a new flight — and blocks until all are
// answered. It returns the entries in cell order plus the number answered
// from the store at classification time (the HTTP layer's X-Cache signal).
// If admitting the new flights would exceed the queue bound or the client's
// quota, nothing is enqueued and ErrBusy is returned.
func (p *Pool) Submit(client string, cells []bench.Cell) ([]Entry, int, error) {
	out := make([]Entry, len(cells))
	waits := make([]*flight, len(cells))
	hits := 0

	p.mu.Lock()
	// Pass 1: classify without side effects, counting the new flights this
	// batch needs: one per distinct new key, plus one per colliding cell.
	keys := make([]string, len(cells))
	canons := make([]string, len(cells))
	planned := make(map[string]string) // key -> canon of a flight this batch creates
	newFlights := 0
	for i, c := range cells {
		canons[i] = CanonicalCell(c)
		keys[i] = rederiveKey(canons[i])
		holder, held := p.holder(keys[i])
		if !held {
			holder, held = planned[keys[i]]
		}
		if !held {
			planned[keys[i]] = canons[i]
			newFlights++
		} else if holder != canons[i] {
			newFlights++
		}
	}
	if p.queued+newFlights > p.queueCap || p.byClient[client]+newFlights > p.clientCap {
		p.mu.Unlock()
		p.metrics.Rejected.Add(1)
		return nil, 0, ErrBusy
	}
	// Pass 2: commit. Duplicates within the batch coalesce onto the flight
	// the first occurrence creates, exactly like cross-request duplicates.
	for i, c := range cells {
		e, stored := p.store.Get(keys[i])
		if stored && e.Canon == canons[i] {
			out[i] = e
			hits++
			p.metrics.Hits.Add(1)
			continue
		}
		held := p.flights[keys[i]]
		if !stored && held != nil && held.canon == canons[i] {
			waits[i] = held
			p.metrics.Coalesced.Add(1)
			continue
		}
		f := &flight{key: keys[i], canon: canons[i], cell: c, client: client, done: make(chan struct{})}
		if !stored && held == nil {
			f.cached = true
			p.flights[keys[i]] = f
		}
		p.queued++
		p.byClient[client]++
		p.metrics.Misses.Add(1)
		p.metrics.QueueDepth.Add(1)
		p.queue <- f
		waits[i] = f
	}
	p.mu.Unlock()

	for i, f := range waits {
		if f == nil {
			continue
		}
		<-f.done
		if f.err != nil {
			return nil, 0, fmt.Errorf("cell %s @ %d: %w", cells[i].Algo, cells[i].Arg, f.err)
		}
		out[i] = f.entry
	}
	return out, hits, nil
}

// holder returns the canonical text that owns key — the stored entry's, or
// else the in-flight computation's — and whether any does. Callers hold p.mu.
func (p *Pool) holder(key string) (string, bool) {
	if e, ok := p.store.Get(key); ok {
		return e.Canon, true
	}
	if f, ok := p.flights[key]; ok {
		return f.canon, true
	}
	return "", false
}

// worker executes flights until the queue closes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for f := range p.queue {
		p.mu.Lock()
		p.queued--
		p.mu.Unlock()
		p.metrics.QueueDepth.Add(-1)
		p.metrics.InFlight.Add(1)

		start := time.Now()
		t, err := p.safeRun(f.cell)
		ms := float64(time.Since(start).Microseconds()) / 1e3
		p.metrics.InFlight.Add(-1)

		if err == nil {
			f.entry = Entry{
				Key:        f.key,
				Canon:      f.canon,
				Experiment: f.cell.Experiment,
				Series:     f.cell.Series,
				PS:         int64(t),
				ComputeMS:  ms,
			}
			if f.cached {
				p.store.Put(f.entry)
			}
			p.metrics.ObserveCompute(f.cell.Experiment, ms)
		} else {
			f.err = err
		}

		// Failed flights are removed, not cached: a later identical request
		// retries rather than replaying the error forever.
		p.mu.Lock()
		if f.cached {
			delete(p.flights, f.key)
		}
		if p.byClient[f.client]--; p.byClient[f.client] == 0 {
			delete(p.byClient, f.client)
		}
		p.mu.Unlock()
		close(f.done)
	}
}

// safeRun converts a panicking cell run into an error so one bad request
// cannot take a worker (and with it the whole pool) down.
func (p *Pool) safeRun(c bench.Cell) (t sim.Time, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: cell panicked: %v", r)
		}
	}()
	return p.runCell(c)
}

// runConcurrently fans fn over n goroutines and joins them all before
// returning — the package's one sanctioned fan-out for tests, so test files
// need no raw go statements of their own.
func runConcurrently(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
