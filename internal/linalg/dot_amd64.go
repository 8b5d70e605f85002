//go:build amd64

package linalg

import (
	"unsafe"

	"ganc/internal/types"
)

// Kernel entry points (dot_amd64.s). dot32x8, dotRows32x8 and outsideBand
// are SSE2, part of the amd64 architecture baseline, so they need no feature
// detection. The bound pass and the score epilogues have 256-bit VEX bodies
// instead, which run where cpuAVX finds AVX once, at start-up; elsewhere they
// are their Go twins, which run the same operations in the same order, so a
// host's choice changes no bit. None checks a bound it is not given:
// dot32x8 requires len(b) ≥ len(a), dotRows32x8 that data holds n rows of
// len(v) and that out holds len(rows) elements (an index outside the n rows
// it checks itself, and scores 0), and addBaseBias32 that len(bias) ≥
// len(out), headBounds32 that rho holds len(upper) values, head the first
// w ≤ len(pb) head factors of len(upper) items and rest the others, each
// chunk by chunk (headAt), and lower is empty or as long as upper, and
// outsideBand that lower and out hold len(upper) elements; the exported
// wrappers enforce that in Go before the assembly touches memory.

// useAVX reports whether this CPU and its OS run the VEX bodies.
var useAVX = cpuAVX()

func cpuAVX() bool

//go:noescape
func dot32x8(a, b []float32) float32

//go:noescape
func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int)

func addBase32(out []float32, base float64) {
	if !useAVX {
		addBase32Generic(out, base)
		return
	}
	addBase32AVX(out, base)
}

func addBaseBias32(out []float32, base float64, bias []float64) {
	if !useAVX {
		addBaseBias32Generic(out, base, bias)
		return
	}
	addBaseBias32AVX(out, base, bias)
}

func headBounds32(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32) {
	if !useAVX {
		headBounds32Generic(upper, lower, head, rest, pb, rho, w, pt, c)
		return
	}
	headBounds32AVX(upper, lower, head, rest, pb, rho, w, pt, c)
}

//go:noescape
func addBase32AVX(out []float32, base float64)

//go:noescape
func addBaseBias32AVX(out []float32, base float64, bias []float64)

//go:noescape
func headBounds32AVX(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)

//go:noescape
func outsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int

// Prefetch hints (dot_amd64.s): PREFETCHT0 is part of the amd64 baseline too.

//go:noescape
func prefetchRow(row []float64)

//go:noescape
func prefetchLine(p unsafe.Pointer)
