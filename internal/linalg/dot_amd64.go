//go:build amd64

package linalg

// SSE2 kernel entry point (dot_amd64.s). SSE2 is part of the amd64
// architecture baseline, so it needs no runtime feature detection. It
// requires len(b) ≥ len(a); the exported wrapper enforces that with one
// up-front bounds check.

//go:noescape
func dot32x8(a, b []float32) float32
