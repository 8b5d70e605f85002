//go:build !amd64

package linalg

import (
	"unsafe"

	"ganc/internal/types"
)

// Portable kernel entry points for architectures without a hand-written
// implementation: the unrolled multi-accumulator Go loops, and prefetch hints
// that do nothing.

func dot32x8(a, b []float32) float32 { return dot32x8Generic(a, b) }

func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32, n int) {
	dotRows32x8Generic(v, data, rows, out, n)
}

func prefetchRow([]float64) {}

func prefetchLine(unsafe.Pointer) {}
