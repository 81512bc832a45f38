package serve

import (
	"strings"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

func testCell() bench.Cell {
	cfg := hw.DefaultConfig()
	cfg.Functional = false
	return bench.Cell{
		Experiment: "fig6", Series: "one core",
		Cfg: cfg, Kind: bench.CellBcast, Algo: mpi.BcastTorusShaddr,
		Arg: 64 << 10, Iters: 5,
	}
}

func TestKeyStable(t *testing.T) {
	a, b := testCell(), testCell()
	if KeyCell(a) != KeyCell(b) {
		t.Fatal("identical cells keyed differently")
	}
	if CanonicalCell(a) != CanonicalCell(b) {
		t.Fatal("identical cells canonicalized differently")
	}
	if !strings.HasPrefix(CanonicalCell(a), "v="+keyVersion+"\n") {
		t.Fatalf("canonical form missing version prefix:\n%s", CanonicalCell(a))
	}
	if len(KeyCell(a)) != 16 {
		t.Fatalf("key %q is not a 16-hex digest", KeyCell(a))
	}
}

// TestKeyExcludesLabels pins the physics-only property: the experiment and
// series labels never influence the key, so a fig6 cell and an identical
// ad-hoc request share one cache line.
func TestKeyExcludesLabels(t *testing.T) {
	a, b := testCell(), testCell()
	b.Experiment, b.Series = "adhoc", "whatever"
	if KeyCell(a) != KeyCell(b) {
		t.Fatal("labels leaked into the cache key")
	}
}

// TestKeySensitivity mutates each cache-relevant input and checks the key
// moves — including a deep Params field, which only the reflect walk covers.
func TestKeySensitivity(t *testing.T) {
	base := KeyCell(testCell())
	muts := map[string]func(*bench.Cell){
		"kind":       func(c *bench.Cell) { c.Kind = bench.CellAllreduce; c.Algo = mpi.AllreduceTorusNew },
		"algo":       func(c *bench.Cell) { c.Algo = mpi.BcastTorusFIFO },
		"arg":        func(c *bench.Cell) { c.Arg++ },
		"iters":      func(c *bench.Cell) { c.Iters++ },
		"torus":      func(c *bench.Cell) { c.Cfg.Torus.DZ *= 2 },
		"mode":       func(c *bench.Cell) { c.Cfg.Mode = hw.SMP },
		"functional": func(c *bench.Cell) { c.Cfg.Functional = true },
		"param-int":  func(c *bench.Cell) { c.Cfg.Params.TLBSlots++ },
		"param-f64":  func(c *bench.Cell) { c.Cfg.Params.TorusLinkBps *= 1.0000001 },
		"param-bool": func(c *bench.Cell) { c.Cfg.Params.MapCacheEnabled = !c.Cfg.Params.MapCacheEnabled },
	}
	for name, mut := range muts {
		c := testCell()
		mut(&c)
		if KeyCell(c) == base {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

func TestRederiveKeyMatches(t *testing.T) {
	c := testCell()
	if rederiveKey(CanonicalCell(c)) != KeyCell(c) {
		t.Fatal("rederiveKey disagrees with KeyCell")
	}
}
