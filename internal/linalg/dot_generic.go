//go:build !amd64

package linalg

import "ganc/internal/types"

// Portable kernel entry points for architectures without a hand-written
// implementation: the unrolled multi-accumulator Go loops.

func dot32x8(a, b []float32) float32 { return dot32x8Generic(a, b) }

func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32) {
	dotRows32x8Generic(v, data, rows, out)
}
