package hw

import (
	"fmt"

	"bgpcoll/internal/geometry"
)

// Config describes one simulated BG/P partition.
type Config struct {
	Torus  geometry.Torus
	Mode   Mode
	Params Params

	// Functional selects whether rank buffers hold real bytes (tests,
	// examples) or are phantom metadata (large benchmark runs where
	// allocating ranks x megabytes of real data would be prohibitive).
	// Timing is identical either way.
	Functional bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if _, err := geometry.NewTorus(c.Torus.DX, c.Torus.DY, c.Torus.DZ); err != nil {
		return err
	}
	switch c.Mode {
	case SMP, Dual, Quad:
	default:
		return fmt.Errorf("hw: invalid mode %d", c.Mode)
	}
	if c.Params.TLBSlots < c.Mode.ProcsPerNode()-1 {
		return fmt.Errorf("hw: %d TLB slots cannot map %d peers",
			c.Params.TLBSlots, c.Mode.ProcsPerNode()-1)
	}
	return nil
}

// Nodes returns the node count of the partition.
func (c Config) Nodes() int { return c.Torus.Nodes() }

// Ranks returns the MPI rank count (nodes x processes per node).
func (c Config) Ranks() int { return c.Nodes() * c.Mode.ProcsPerNode() }

// DefaultConfig returns a small quad-mode partition suitable for tests and
// examples: an 4x4x2 torus (32 nodes, 128 ranks) with real data buffers.
func DefaultConfig() Config {
	return Config{
		Torus:      geometry.Torus{DX: 4, DY: 4, DZ: 2},
		Mode:       Quad,
		Params:     DefaultParams(),
		Functional: true,
	}
}

// RackConfig returns the paper's evaluation geometries: one BG/P rack is
// 1024 nodes (8x8x16); two racks, the paper's 8192-rank quad-mode system,
// form a 16x8x16 torus. Buffers are phantom because these runs exist for
// timing only.
func RackConfig(racks int) (Config, error) {
	var t geometry.Torus
	switch racks {
	case 1:
		t = geometry.Torus{DX: 8, DY: 8, DZ: 16}
	case 2:
		t = geometry.Torus{DX: 16, DY: 8, DZ: 16}
	case 4:
		t = geometry.Torus{DX: 16, DY: 16, DZ: 16}
	default:
		return Config{}, fmt.Errorf("hw: no preset for %d racks", racks)
	}
	return Config{Torus: t, Mode: Quad, Params: DefaultParams()}, nil
}

// MidplaneConfig returns a half-rack 8x8x8 partition (512 nodes, 2048 quad
// ranks): the default geometry for torus bandwidth benchmarks, where
// steady-state behaviour is scale-insensitive (DESIGN.md §4).
func MidplaneConfig() Config {
	return Config{
		Torus:  geometry.Torus{DX: 8, DY: 8, DZ: 8},
		Mode:   Quad,
		Params: DefaultParams(),
	}
}
