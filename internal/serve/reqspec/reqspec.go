// Package reqspec is the one request grammar shared by every consumer-facing
// entry point: the bgpsim CLI and the bgpsimd server parse sizes, torus
// geometries, node modes, and algorithm names through these functions, so a
// request means the same thing whichever door it comes through — and a
// cached server result is addressable by the exact string a CLI user would
// have typed.
package reqspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// ParseSize parses a byte count with the benchmark axes' K/M suffixes
// ("512", "64K", "2M", case-insensitive, surrounding whitespace ignored).
// An accepted size is positive: zero, negative and overflowing counts are
// errors.
func ParseSize(s string) (int, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := 1
	switch {
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n <= 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("size %q is not a positive byte count", s)
	}
	return n * mult, nil
}

// ParseTorus parses a partition geometry "DXxDYxDZ" (case-insensitive x).
// Every accepted dimension is positive.
func ParseTorus(s string) (dx, dy, dz int, err error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("torus must be DXxDYxDZ, got %q", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		dims[i], err = strconv.Atoi(p)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("torus dimension %q: %w", p, err)
		}
		if dims[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("torus dimension %q is not positive", p)
		}
	}
	return dims[0], dims[1], dims[2], nil
}

// ParseMode parses a node mode name ("smp", "dual", "quad",
// case-insensitive).
func ParseMode(s string) (hw.Mode, error) {
	switch strings.ToLower(s) {
	case "smp":
		return hw.SMP, nil
	case "dual":
		return hw.Dual, nil
	case "quad":
		return hw.Quad, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

// BcastAlgorithms lists the registered broadcast algorithm names, sorted.
func BcastAlgorithms() []string { return mpi.BcastAlgorithms() }

// AllreduceAlgorithms lists the allreduce algorithm names a request may
// select.
func AllreduceAlgorithms() []string {
	return []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent}
}

// ValidBcastAlgo reports whether name is a registered broadcast algorithm.
func ValidBcastAlgo(name string) bool {
	for _, n := range BcastAlgorithms() {
		if n == name {
			return true
		}
	}
	return false
}

// ValidAllreduceAlgo reports whether name is a selectable allreduce
// algorithm.
func ValidAllreduceAlgo(name string) bool {
	for _, n := range AllreduceAlgorithms() {
		if n == name {
			return true
		}
	}
	return false
}
