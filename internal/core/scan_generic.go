//go:build !amd64

package core

import (
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// gainScan is gainScanGeneric on architectures without a hand-written scan.
func gainScan(raw, cov []float32, m recommender.MinMax[float32], theta, bar float32, first types.ItemID, out []types.ItemID, _ bool) int {
	return gainScanGeneric(raw, cov, m, theta, bar, first, out)
}
