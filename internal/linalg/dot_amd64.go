//go:build amd64

package linalg

import "ganc/internal/types"

// SSE2 kernel entry points (dot_amd64.s). SSE2 is part of the amd64
// architecture baseline, so they need no runtime feature detection. Neither
// checks a bound: dot32x8 requires len(b) ≥ len(a), dotRows32x8 that every
// rows[k] is a row of the len(v)-wide matrix in data and that out holds
// len(rows) elements; the exported wrappers enforce that in Go before the
// assembly touches memory.

//go:noescape
func dot32x8(a, b []float32) float32

//go:noescape
func dotRows32x8(v, data []float32, rows []types.ItemID, out []float32)
