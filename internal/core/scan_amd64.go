//go:build amd64

package core

import (
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// scanGains is the SSE2 gain scan (scan_amd64.s): gainScanGeneric over the
// float32 map (raw − min)·scale, four items at a time. SSE2 is part of the
// amd64 baseline, so it needs no feature detection. It requires
// len(cov) ≥ len(raw) and len(out) ≥ len(raw); gainScan slices both before
// the call. sparse says few items are expected to reach the bar (the scores
// themselves are scanned, not bounds of them): a quad that keeps none then
// skips its stores.
//
//go:noescape
func scanGains(raw, cov []float32, min, scale, theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int

// compressLanes[m] holds the lanes of a quad whose bits are set in the 4-bit
// mask m, in ascending order, and compressCounts[m] how many there are; the
// scan adds the quad's first item to the row and stores it whole.
var compressLanes, compressCounts = func() (lanes [16][4]int32, counts [16]uint8) {
	for m := range lanes {
		for lane := int32(0); lane < 4; lane++ {
			if m>>lane&1 == 1 {
				lanes[m][counts[m]] = lane
				counts[m]++
			}
		}
	}
	return lanes, counts
}()

// gainScan writes to out, in ascending order, first+k for every item k of raw
// whose gain reaches bar, and returns how many it wrote: gainScanGeneric's
// items, though what it leaves in out[n:len(raw)] is its own. sparse changes
// only its speed.
func gainScan(raw, cov []float32, m recommender.MinMax[float32], theta, bar float32, first types.ItemID, out []types.ItemID, sparse bool) int {
	min, scale := m.Affine()
	return scanGains(raw, cov[:len(raw)], min, scale, theta, bar, first, out[:len(raw)], sparse)
}
