package submodular

import (
	"math"
	"testing"

	"ganc/internal/types"
)

// coverageOracle is a test oracle implementing a Dyn-style diminishing-
// returns gain: 1/sqrt(1 + f_i) where f_i counts previous recommendations of
// item i across all users.
type coverageOracle struct {
	freq       map[types.ItemID]int
	candidates []types.ItemID
}

func newCoverageOracle(numItems int) *coverageOracle {
	cands := make([]types.ItemID, numItems)
	for i := range cands {
		cands[i] = types.ItemID(i)
	}
	return &coverageOracle{freq: make(map[types.ItemID]int), candidates: cands}
}

func (o *coverageOracle) Gain(_ types.UserID, i types.ItemID) float64 {
	return 1 / math.Sqrt(1+float64(o.freq[i]))
}

func (o *coverageOracle) Commit(_ types.UserID, i types.ItemID) { o.freq[i]++ }

func (o *coverageOracle) Candidates(types.UserID) []types.ItemID { return o.candidates }

// accuracyOracle is a modular (no interaction) oracle with fixed per-item
// scores, used to verify greedy picks the top-scoring items.
type accuracyOracle struct {
	scores     map[types.ItemID]float64
	candidates []types.ItemID
}

func (o *accuracyOracle) Gain(_ types.UserID, i types.ItemID) float64 { return o.scores[i] }
func (o *accuracyOracle) Commit(types.UserID, types.ItemID)           {}
func (o *accuracyOracle) Candidates(types.UserID) []types.ItemID      { return o.candidates }

func TestLocallyGreedyPicksTopScoresForModularObjective(t *testing.T) {
	o := &accuracyOracle{
		scores:     map[types.ItemID]float64{0: 0.1, 1: 0.9, 2: 0.5, 3: 0.7},
		candidates: []types.ItemID{0, 1, 2, 3},
	}
	recs := LocallyGreedy([]types.UserID{0}, 2, o)
	got := recs[0]
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("greedy picked %v, want [1 3]", got)
	}
}

func TestLocallyGreedySpreadsItemsUnderDynCoverage(t *testing.T) {
	// With a pure Dyn coverage objective and 3 users × 2 items over a
	// 6-item catalog, greedy should never recommend the same item twice:
	// a fresh item always has gain 1 > 1/sqrt(2).
	o := newCoverageOracle(6)
	users := []types.UserID{0, 1, 2}
	recs := LocallyGreedy(users, 2, o)
	freq := map[types.ItemID]int{}
	for _, set := range recs {
		for _, item := range set {
			if freq[item]++; freq[item] > 1 {
				t.Fatalf("item %d recommended twice; Dyn coverage should spread items", item)
			}
		}
	}
	if len(recs.DistinctItems()) != 6 {
		t.Fatalf("expected all 6 items used, got %d", len(recs.DistinctItems()))
	}
}

func TestLocallyGreedyRespectsPerUserLimit(t *testing.T) {
	o := newCoverageOracle(10)
	recs := LocallyGreedy([]types.UserID{0, 1}, 4, o)
	for u, set := range recs {
		if len(set) != 4 {
			t.Fatalf("user %d received %d items, want 4", u, len(set))
		}
		seen := map[types.ItemID]bool{}
		for _, i := range set {
			if seen[i] {
				t.Fatalf("user %d has duplicate item %d", u, i)
			}
			seen[i] = true
		}
	}
}

func TestLocallyGreedyHandlesSmallCandidateSets(t *testing.T) {
	o := newCoverageOracle(2)
	recs := LocallyGreedy([]types.UserID{7}, 5, o)
	if len(recs[7]) != 2 {
		t.Fatalf("expected the whole 2-item catalog, got %v", recs[7])
	}
}

func TestPartitionMatroid(t *testing.T) {
	m := NewPartitionMatroid(2)
	if m.Limit() != 2 {
		t.Fatal("limit")
	}
	if !m.CanAdd(0) {
		t.Fatal("empty matroid should allow additions")
	}
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0); err != nil {
		t.Fatal(err)
	}
	if m.CanAdd(0) {
		t.Fatal("limit reached but CanAdd still true")
	}
	if err := m.Add(0); err == nil {
		t.Fatal("exceeding the limit did not error")
	}
	if m.Count(0) != 2 || m.Count(1) != 0 {
		t.Fatalf("counts wrong: %d, %d", m.Count(0), m.Count(1))
	}
	neg := NewPartitionMatroid(-5)
	if neg.CanAdd(0) {
		t.Fatal("negative limit should behave as zero")
	}
}

func TestIsMonotoneAndIsSubmodularOnCoverageFunction(t *testing.T) {
	// f(A) = Σ_{distinct items} 1 (set cover) is monotone submodular.
	cover := func(items []types.ItemID) float64 {
		set := map[types.ItemID]bool{}
		for _, i := range items {
			set[i] = true
		}
		return float64(len(set))
	}
	ground := []types.ItemID{0, 1, 2, 1, 3}
	if !IsMonotone(cover, ground) {
		t.Fatal("set cover should be monotone")
	}
	if !IsSubmodular(cover, ground) {
		t.Fatal("set cover should be submodular")
	}
}

func TestIsSubmodularDetectsSupermodularFunction(t *testing.T) {
	// f(A) = |A|² is supermodular (increasing returns); the check must fail.
	square := func(items []types.ItemID) float64 {
		return float64(len(items) * len(items))
	}
	ground := []types.ItemID{0, 1, 2, 3}
	if IsSubmodular(square, ground) {
		t.Fatal("|A|² must not pass the submodularity check")
	}
	if !IsMonotone(square, ground) {
		t.Fatal("|A|² is monotone and should pass the monotonicity check")
	}
}

func TestIsMonotoneDetectsDecreasingFunction(t *testing.T) {
	dec := func(items []types.ItemID) float64 { return -float64(len(items)) }
	if IsMonotone(dec, []types.ItemID{0, 1, 2}) {
		t.Fatal("a decreasing function must not pass the monotonicity check")
	}
}

func TestDynStyleObjectiveIsSubmodularAcrossUsers(t *testing.T) {
	// Reproduce the Appendix B argument empirically: the value of a set of
	// (user, item) pairs under the Dyn coverage function
	// Σ_pairs 1/sqrt(1 + f_i(before)) — equivalently Σ_i Σ_{k=1..f_i} 1/√k —
	// is monotone submodular in the set of pairs. We encode pairs as items
	// with the item component in the low bits.
	pairValue := func(pairs []types.ItemID) float64 {
		freq := map[int]int{}
		for _, p := range pairs {
			freq[int(p)%10]++
		}
		total := 0.0
		for _, f := range freq {
			for k := 1; k <= f; k++ {
				total += 1 / math.Sqrt(float64(k))
			}
		}
		return total
	}
	// Ground set: 8 pairs touching 3 distinct items across 4 users.
	ground := []types.ItemID{0, 10, 20, 1, 11, 2, 12, 21}
	if !IsMonotone(pairValue, ground) {
		t.Fatal("Dyn objective should be monotone")
	}
	if !IsSubmodular(pairValue, ground) {
		t.Fatal("Dyn objective should be submodular")
	}
}
