//go:build amd64

package linalg

import (
	"unsafe"

	"ganc/internal/types"
)

// Kernel entry points (dot_amd64.s). Every kernel has one AVX-512F body,
// which runs where cpuAVX512 finds AVX-512F, POPCNT and an OS that keeps the
// zmm and mask registers, once, at start-up; elsewhere it is its Go twin
// (DESIGN.md §12, "AVX-512 bodies"). The bound pass, the score epilogues, the
// band scan and the gain scan run the twin's operations in its order, so a
// host's choice changes none of their bits; the row kernel's body sums in 16
// lanes (DOT16), a tree the twin's eight accumulators do not share, so the
// two score within float32 rounding of each other. None checks a bound it is
// not given: dot32x8 requires len(b) ≥ len(a), dotRows32x8 that data holds n
// rows of len(v) and that out holds len(rows) elements (an index outside the
// n rows it checks itself, and scores 0), addBaseBias32 that
// len(bias) ≥ len(out), headBounds32 that rho holds len(upper) values, head
// the first w ≤ len(pb) head factors of len(upper) items and rest the
// others, each chunk by chunk (headAt), and lower is empty or as long as
// upper, and outsideBand and gainScan that their second row and out hold as
// many elements as their first; the exported wrappers enforce that in Go
// before the assembly touches memory.

// useAVX512 reports whether this CPU and its OS run the AVX-512 bodies.
var useAVX512 = cpuAVX512()

func cpuAVX512() bool

func dot32x8(a, b []float32) float32 {
	if !useAVX512 {
		return dot32x8Generic(a, b)
	}
	return dot32x8AVX512(a, b)
}

func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int) {
	if !useAVX512 {
		dotRows32x8Generic(v, data, rows, out, n)
		return
	}
	dotRows32x8AVX512(v, data, rows, out, n)
}

func addBase32(out []float32, base float64) {
	if !useAVX512 {
		addBase32Generic(out, base)
		return
	}
	addBase32AVX512(out, base)
}

func addBaseBias32(out []float32, base float64, bias []float64) {
	if !useAVX512 {
		addBaseBias32Generic(out, base, bias)
		return
	}
	addBaseBias32AVX512(out, base, bias)
}

func headBounds32(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32) {
	if !useAVX512 {
		headBounds32Generic(upper, lower, head, rest, pb, rho, w, pt, c)
		return
	}
	headBounds32AVX512(upper, lower, head, rest, pb, rho, w, pt, c)
}

func outsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int {
	if !useAVX512 {
		return outsideBandGeneric(upper, lower, top, bottom, first, out)
	}
	return outsideBandAVX512(upper, lower, top, bottom, first, out)
}

func gainScan(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int {
	if !useAVX512 {
		return gainScanGeneric(raw, cov, min, scale, theta, bar, first, out)
	}
	return gainScanAVX512(raw, cov, min, scale, theta, bar, first, out, sparse)
}

//go:noescape
func dot32x8AVX512(a, b []float32) float32

//go:noescape
func dotRows32x8AVX512(v, data []float32, rows []types.ItemID, out []float32, n int)

//go:noescape
func addBase32AVX512(out []float32, base float64)

//go:noescape
func addBaseBias32AVX512(out []float32, base float64, bias []float64)

//go:noescape
func headBounds32AVX512(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32)

//go:noescape
func outsideBandAVX512(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int

//go:noescape
func gainScanAVX512(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int

// Prefetch hints (dot_amd64.s): PREFETCHT0 is part of the amd64 baseline.

//go:noescape
func prefetchRow(row []float64)

//go:noescape
func prefetchLine(p unsafe.Pointer)
