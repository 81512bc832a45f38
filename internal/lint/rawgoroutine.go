package lint

import (
	"go/ast"
	"path/filepath"
	"slices"
)

// sanctionedGoFiles maps a simulator-driven package to the files in it
// allowed to launch goroutines:
//
//   - internal/sim/pool.go: the process worker pool launches the goroutines
//     backing sim.Kernel.Spawn coroutines; a pooled worker only executes
//     simulation code while holding the virtual-CPU token, and the kernel
//     hands that token to exactly one goroutine at a time.
//   - internal/bench/parallel.go: the sweep runner fans whole, independent
//     simulations (one kernel per cell, results merged in fixed cell order)
//     across a worker pool; no simulation state crosses goroutines.
//   - internal/bench/heapsampler.go: the heap sampler polls runtime memory
//     statistics on a real-time ticker and is joined (not just signalled)
//     before its experiment reports; it never touches simulation state.
//   - internal/machine/build.go: world construction fills disjoint blocks of
//     the per-node slabs before the kernel runs; the workers are joined
//     before New returns, so none overlaps the event loop.
//   - internal/serve/pool.go: the bgpsimd worker pool runs whole,
//     independent cell simulations (each on one goroutine at a time, worlds
//     leased from the bench pool) and joins its workers in Close; it also
//     hosts the package's one test fan-out helper, so serve tests need no
//     raw go statements.
var sanctionedGoFiles = map[string][]string{
	"bgpcoll/internal/sim":     {"pool.go"},
	"bgpcoll/internal/bench":   {"parallel.go", "heapsampler.go"},
	"bgpcoll/internal/machine": {"build.go"},
	"bgpcoll/internal/serve":   {"pool.go"},
}

// RawGoroutine forbids `go` statements in simulator-driven packages outside
// the sanctioned launch sites. A raw goroutine runs concurrently with the
// event loop on the real scheduler, so its effects land at wall-clock-
// dependent points in virtual time — the definition of a determinism bug.
//
// The serving layer is in scope too, though it is not simulator-driven in
// the full sense (it may read the wall clock for latency metrics): it
// launches whole kernel runs, so an unsanctioned goroutine there could race
// a simulation exactly like one in bench.
var RawGoroutine = &Analyzer{
	Name:    "rawgoroutine",
	Doc:     "forbid go statements in simulator-driven packages outside the sanctioned launch sites; use Kernel.Spawn (or the bench sweep runner)",
	Applies: func(path string) bool { return isSimDriven(path) || path == "bgpcoll/internal/serve" },
	Run:     runRawGoroutine,
}

func runRawGoroutine(pass *Pass) error {
	for _, file := range pass.Files {
		name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if slices.Contains(sanctionedGoFiles[pass.Path], name) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw go statement in a simulator-driven package; simulated concurrency must be a sim process (Kernel.Spawn)")
			}
			return true
		})
	}
	return nil
}
