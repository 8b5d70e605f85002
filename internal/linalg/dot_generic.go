//go:build !amd64

package linalg

// Portable kernel entry point for architectures without a hand-written
// implementation: the unrolled multi-accumulator Go loop.

func dot32x8(a, b []float32) float32 { return dot32x8Generic(a, b) }
