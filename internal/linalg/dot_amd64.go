//go:build amd64

package linalg

import (
	"unsafe"

	"ganc/internal/types"
)

// SSE2 kernel entry points (dot_amd64.s). SSE2 is part of the amd64
// architecture baseline, so they need no runtime feature detection. None
// checks a bound it is not given: dot32x8 requires len(b) ≥ len(a),
// dotRows32x8 that data holds n rows of len(v) and that out holds len(rows)
// elements (an index outside the n rows it checks itself, and scores 0), and
// addBaseBias32 that len(bias) ≥ len(out), headBounds32 that rho holds
// len(upper) values, head the first w ≤ len(pb)/4 head factors of len(upper)
// items and rest the others, each chunk by chunk (headAt), and lower is
// empty or as long as upper, and outsideBand that lower and out hold
// len(upper) elements; the exported wrappers enforce that in Go before the
// assembly touches memory.

//go:noescape
func dot32x8(a, b []float32) float32

//go:noescape
func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int)

//go:noescape
func addBase32(out []float32, base float64)

//go:noescape
func addBaseBias32(out []float32, base float64, bias []float64)

//go:noescape
func headBounds32(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)

//go:noescape
func outsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int

// Prefetch hints (dot_amd64.s): PREFETCHT0 is part of the amd64 baseline too.

//go:noescape
func prefetchRow(row []float64)

//go:noescape
func prefetchLine(p unsafe.Pointer)
