//go:build amd64

package core

import "ganc/internal/recommender"

// scanGains is the SSE2 gain scan (scan_amd64.s): gainScanGeneric over the
// float32 map (raw − min)·scale, four candidates at a time. SSE2 is part of
// the amd64 baseline, so it needs no feature detection. It requires
// len(cov) ≥ len(raw); gainScan slices cov to raw before the call.
//
//go:noescape
func scanGains(raw, cov []float32, min, scale, theta, bar float32) int

// gainScan returns the position of the first item of raw whose gain reaches
// bar, len(raw) when none does (gainScanGeneric, which it equals).
func gainScan(raw, cov []float32, m recommender.MinMax[float32], theta, bar float32) int {
	min, scale := m.Affine()
	return scanGains(raw, cov[:len(raw)], min, scale, theta, bar)
}
