package submodular

import (
	"math/rand"
	"testing"

	"ganc/internal/types"
)

// referenceGreedyForUser is the small reference implementation the property
// tests pin the lazy (CELF) selection against: a per-pick full rescan of the
// candidate slice, exactly the shape of the pre-refactor core sweeps. It is
// deliberately kept in the test file, not the package, so the production path
// cannot quietly become its own oracle.
func referenceGreedyForUser(u types.UserID, n int, oracle Oracle) types.TopNSet {
	candidates := oracle.Candidates(u)
	if n > len(candidates) {
		n = len(candidates)
	}
	chosen := make(map[types.ItemID]struct{}, n)
	set := make(types.TopNSet, 0, n)
	for step := 0; step < n; step++ {
		bestItem := types.InvalidItem
		bestGain := 0.0
		first := true
		for _, i := range candidates {
			if _, used := chosen[i]; used {
				continue
			}
			g := oracle.Gain(u, i)
			if first || g > bestGain || (g == bestGain && i < bestItem) {
				bestGain, bestItem, first = g, i, false
			}
		}
		if bestItem == types.InvalidItem {
			break
		}
		chosen[bestItem] = struct{}{}
		set = append(set, bestItem)
		oracle.Commit(u, bestItem)
	}
	return set
}

// modularOracle has fixed per-item gains (the Stat/Rand-style objective).
type modularOracle struct {
	gains []float64
	cands []types.ItemID
}

func (o *modularOracle) Gain(_ types.UserID, i types.ItemID) float64 { return o.gains[i] }
func (o *modularOracle) Commit(types.UserID, types.ItemID)           {}
func (o *modularOracle) Candidates(types.UserID) []types.ItemID      { return o.cands }

// dynStyleOracle mirrors the Dyn coverage objective: the gain of an item
// decays with how often it has been committed.
type dynStyleOracle struct {
	weight []float64
	freq   []int
	cands  []types.ItemID
}

func (o *dynStyleOracle) Gain(_ types.UserID, i types.ItemID) float64 {
	return o.weight[i] / (1 + float64(o.freq[i]))
}
func (o *dynStyleOracle) Commit(_ types.UserID, i types.ItemID) { o.freq[i]++ }
func (o *dynStyleOracle) Candidates(types.UserID) []types.ItemID {
	return o.cands
}

func randomCandidates(rng *rand.Rand, numItems int) []types.ItemID {
	cands := make([]types.ItemID, 0, numItems)
	for i := 0; i < numItems; i++ {
		if rng.Float64() < 0.8 {
			cands = append(cands, types.ItemID(i))
		}
	}
	return cands
}

// coarseGains draws gains from a small value set so ties are frequent and the
// tie-breaking rules are genuinely exercised.
func coarseGains(rng *rand.Rand, numItems int) []float64 {
	gains := make([]float64, numItems)
	for i := range gains {
		gains[i] = float64(rng.Intn(6)) / 5.0
	}
	return gains
}

func assertSameSet(t *testing.T, trial int, got, want types.TopNSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: lengths differ: lazy %v vs reference %v", trial, got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("trial %d: lazy %v != reference %v", trial, got, want)
		}
	}
}

func TestLazyGreedyMatchesReferenceOnModularObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		numItems := 20 + rng.Intn(60)
		gains := coarseGains(rng, numItems)
		cands := randomCandidates(rng, numItems)
		n := 1 + rng.Intn(12)
		lazy := LazyGreedyForUser(0, n, &modularOracle{gains: gains, cands: cands})
		ref := referenceGreedyForUser(0, n, &modularOracle{gains: gains, cands: cands})
		assertSameSet(t, trial, lazy, ref)
	}
}

func TestLazyGreedyMatchesReferenceOnSubmodularObjectives(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 50; trial++ {
		numItems := 20 + rng.Intn(60)
		weight := coarseGains(rng, numItems)
		cands := randomCandidates(rng, numItems)
		n := 1 + rng.Intn(12)
		// Pre-seed frequencies so gains start partially decayed.
		freq := make([]int, numItems)
		for i := range freq {
			freq[i] = rng.Intn(3)
		}
		freqCopy := append([]int(nil), freq...)
		lazy := LazyGreedyForUser(0, n, &dynStyleOracle{weight: weight, freq: freq, cands: cands})
		ref := referenceGreedyForUser(0, n, &dynStyleOracle{weight: weight, freq: freqCopy, cands: cands})
		assertSameSet(t, trial, lazy, ref)
	}
}

// TestLazyGreedyScratchReuseMatchesFresh keeps the name it had when a
// selection could borrow its caller's heap storage. What outlived that is the
// other kind of reuse: back-to-back selections over one oracle state that
// carries over (consecutive users sharing the Dyn frequencies) match the
// reference greedy run over its own copy of that state.
func TestLazyGreedyScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const numItems = 90
	freq := make([]int, numItems)
	freqRef := make([]int, numItems)
	for trial := 0; trial < 30; trial++ {
		weight := coarseGains(rng, numItems)
		cands := randomCandidates(rng, numItems)
		n := 1 + rng.Intn(8)
		lazy := LazyGreedyForUser(0, n, &dynStyleOracle{weight: weight, freq: freq, cands: cands})
		ref := referenceGreedyForUser(0, n, &dynStyleOracle{weight: weight, freq: freqRef, cands: cands})
		assertSameSet(t, trial, lazy, ref)
	}
}
