package reqspec

import (
	"testing"

	"bgpcoll/internal/hw"
)

// FuzzReqspec drives the request-spec parsers with arbitrary strings, as
// bgpsimd receives them in untrusted request bodies. Properties: no input
// panics, an accepted size is positive, an accepted torus has positive
// dimensions, and an accepted mode is one of the three node modes.
func FuzzReqspec(f *testing.F) {
	for _, s := range []string{
		"64K", "2M", " 4m ", "17", "0", "-5", "9223372036854775807", "9223372036854775807M",
		"8x8x16", "2X2X4", "0x2x2", "-1x2x2", "8x8", "quad", "SMP", "octo", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if n, err := ParseSize(s); err == nil && n <= 0 {
			t.Errorf("ParseSize(%q) accepted %d", s, n)
		}
		if dx, dy, dz, err := ParseTorus(s); err == nil && (dx <= 0 || dy <= 0 || dz <= 0) {
			t.Errorf("ParseTorus(%q) accepted %dx%dx%d", s, dx, dy, dz)
		}
		if m, err := ParseMode(s); err == nil && m != hw.SMP && m != hw.Dual && m != hw.Quad {
			t.Errorf("ParseMode(%q) accepted mode %v", s, m)
		}
	})
}
