// World pool: the sweep runner's lease/release layer over mpi.World.Reset.
//
// Every (series, size) cell of a figure is one deterministic kernel run, and
// most cells of one figure share a partition shape (hw.Config). Building an
// 8192-rank world per cell — nodes, DMA engines, torus and tree networks,
// mailboxes — used to dominate the allocation profile of a sweep. The pool
// keeps finished worlds keyed by their exact Config; a worker leases one,
// runs its cell, and releases it reset, so a 44-cell figure constructs as
// many worlds as it has distinct configs (typically one or two) times the
// number of concurrently running workers.
//
// Determinism: World.Reset returns a world to a state bit-identical (in
// every kernel-observable way) to a fresh NewWorld, so leasing instead of
// constructing cannot change any measured virtual time — the fresh-vs-reused
// stress tests pin this. Worlds whose run failed are never pooled: a failed
// kernel still holds parked processes, and sim.Kernel.Reset refuses them.
//
// This file is the sanctioned lease/reset site for the bgplint worldreuse
// rule; bench code must go through leaseWorld/releaseWorld rather than
// calling Reset (or retaining kernel handles) itself.
package bench

import (
	"sync"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// worldPool holds reset worlds by exact partition configuration. hw.Config
// is comparable (scalar fields only), so it keys the map directly; two cells
// differing in any parameter — mode, geometry, even one ablation knob —
// never share a world. The mutex only guards the map: a leased world is
// owned exclusively by its worker, and Reset runs before the world rejoins
// the free list.
var worldPool struct {
	mu   sync.Mutex
	free map[hw.Config][]*mpi.World

	// order records each config's first insertion into free, so the
	// cross-config growth path below scans candidates in a deterministic,
	// map-iteration-free order (the bgplint maporder rule would rightly
	// reject ranging over free here).
	order []hw.Config
}

// leaseWorld returns a pooled world for cfg, or constructs one when the pool
// has none. The caller owns the world until releaseWorld.
//
// A miss prefers growing over building: a world parked under a *different*
// config is reconfigured in place (mpi.World.Reconfigure), reusing the
// kernel's accumulated slabs and the node/rank backing arrays.
func leaseWorld(cfg hw.Config) (*mpi.World, error) {
	worldPool.mu.Lock()
	if ws := worldPool.free[cfg]; len(ws) > 0 {
		w := ws[len(ws)-1]
		ws[len(ws)-1] = nil
		worldPool.free[cfg] = ws[:len(ws)-1]
		worldPool.mu.Unlock()
		return w, nil
	}
	var donor *mpi.World
	for _, c := range worldPool.order {
		if ws := worldPool.free[c]; len(ws) > 0 {
			donor = ws[len(ws)-1]
			ws[len(ws)-1] = nil
			worldPool.free[c] = ws[:len(ws)-1]
			break
		}
	}
	worldPool.mu.Unlock()
	if donor != nil {
		if err := donor.Reconfigure(cfg); err == nil {
			return donor, nil
		}
		// A donor that cannot take this shape (or a config that fails
		// validation) is dropped; fall through to plain construction, which
		// reports any real config error.
	}
	return mpi.NewWorld(cfg)
}

// releaseWorld resets w and returns it to the pool. Worlds whose run failed
// are dropped instead: their kernels hold parked processes that Reset
// (correctly) refuses to reuse, and an errored measurement is rare enough
// that rebuilding is the simple safe policy.
func releaseWorld(cfg hw.Config, w *mpi.World, runErr error) {
	if runErr != nil {
		return
	}
	w.Reset()
	worldPool.mu.Lock()
	if worldPool.free == nil {
		worldPool.free = make(map[hw.Config][]*mpi.World)
	}
	if _, seen := worldPool.free[cfg]; !seen {
		worldPool.order = append(worldPool.order, cfg)
	}
	worldPool.free[cfg] = append(worldPool.free[cfg], w)
	worldPool.mu.Unlock()
}

// DrainWorldPool drops every pooled world. cmd/bgpbench calls it between
// experiments so each experiment's memstats attribute construction costs to
// the run that paid them and a full-scale sweep never holds more partitions
// than one experiment needs; tests use it to force fresh construction.
func DrainWorldPool() {
	worldPool.mu.Lock()
	worldPool.free = nil
	worldPool.order = nil
	worldPool.mu.Unlock()
}

// PooledWorlds reports how many worlds are parked in the pool (tests and
// diagnostics).
func PooledWorlds() int {
	worldPool.mu.Lock()
	defer worldPool.mu.Unlock()
	n := 0
	for _, ws := range worldPool.free {
		n += len(ws)
	}
	return n
}

// resetBetweenRuns re-arms a world figS owns privately between its paired
// measurement runs (broadcast, then barrier). The capacity sweep bypasses
// the pool — construction cost is part of its measurement — so its resets
// forward through this sanctioned site instead of a lease/release cycle.
func resetBetweenRuns(w *mpi.World) { w.Reset() }
