//go:build !amd64

package linalg

import (
	"unsafe"

	"ganc/internal/types"
)

// Portable kernel entry points for architectures without a hand-written
// implementation: the unrolled multi-accumulator Go loops, the scalar score
// epilogues, bound pass, band scan and gain scan, and prefetch hints that do
// nothing.

// useAVX512 is false: no AVX-512 body is compiled here.
const useAVX512 = false

func dot32x8(a, b []float32) float32 { return dot32x8Generic(a, b) }

func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int) {
	dotRows32x8Generic(v, data, rows, out, n)
}

func addBase32(out []float32, base float64) { addBase32Generic(out, base) }

func addBaseBias32(out []float32, base float64, bias []float64) {
	addBaseBias32Generic(out, base, bias)
}

func headBounds32(upper, lower, head, rest, pb, rho []float32, w int, pt, c float32) {
	headBounds32Generic(upper, lower, head, rest, pb, rho, w, pt, c)
}

func outsideBand(upper, lower []float32, top, bottom float32, first types.ItemID, out []types.ItemID) int {
	return outsideBandGeneric(upper, lower, top, bottom, first, out)
}

func gainScan(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, _ bool) int {
	return gainScanGeneric(raw, cov, min, scale, theta, bar, first, out)
}

func prefetchRow([]float64) {}

func prefetchLine(unsafe.Pointer) {}
