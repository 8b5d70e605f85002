package core

// Property tests for sweepPopDyn — the sparse Pop+Dyn frozen-sweep fast path
// (DESIGN.md §12). Across random frozen snapshots, every precision tier and
// every internal pass-1 variant — the cached rank walk (identity snapshots),
// the counting pass (copied snapshots), and the off-table heap fallback
// (frequencies beyond the score table) — must reproduce the general modular
// sweep bit-for-bit: same items, same order.

import (
	"context"
	"math/rand"
	"testing"

	"ganc/internal/longtail"
	"ganc/internal/types"
)

var popDynTiers = []types.ScoringPrecision{types.PrecisionF64, types.PrecisionF32}

// generalPopDynSweep runs the general modular pipeline (what sweepUser does
// for non-Pop accuracy recommenders) against the same frozen snapshot,
// bypassing the sweepPopDyn dispatch.
func generalPopDynSweep(t *testing.T, g *GANC, u types.UserID, n int, freq []int) types.TopNSet {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	sc.cand = g.train.AppendCandidates(u, sc.cand[:0])
	if cap(sc.packed) < len(sc.cand) {
		sc.packed = make([]float64, len(sc.cand))
	}
	set, err := g.sweepModular(context.Background(), u, n, sc.cand, freq, nil, false, sc)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// fastPopDynSweep goes through sweepUser, which dispatches Pop+frozen-Dyn
// sweeps to sweepPopDyn.
func fastPopDynSweep(t *testing.T, g *GANC, u types.UserID, n int, freq []int) types.TopNSet {
	t.Helper()
	sc := getScratch()
	defer putScratch(sc)
	set, err := g.sweepUser(context.Background(), u, n, freq, false, sc)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func assertSameSet(t *testing.T, label string, u types.UserID, got, want types.TopNSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: user %d set sizes differ: %v vs %v", label, u, got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: user %d: fast path %v != general sweep %v", label, u, got, want)
		}
	}
}

func TestSweepPopDynMatchesGeneralSweep(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		sp := equivSplit(t, trial)
		train := sp.Train
		prefs := equivPrefs(t, train, trial)
		rng := rand.New(rand.NewSource(900 + trial))
		// Odd trials draw frequencies beyond the inverse-sqrt score table so
		// the off-table heap fallback is the pass-1 variant under test.
		maxFreq := 40
		if trial%2 == 1 {
			maxFreq = 3 * len(invSqrtTab32)
		}
		for _, prec := range popDynTiers {
			dyn := NewDynCoverage(train.NumItems())
			g, err := New(train, NewPopAccuracy(train, 5), prefs, dyn,
				Config{N: 5, Seed: trial, Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			freqState := make([]int, train.NumItems())
			for i := range freqState {
				freqState[i] = rng.Intn(maxFreq)
			}
			dyn.SetFrequencies(freqState)

			// The shared frozen snapshot hits the cached-rank walk (reduced
			// tiers); a per-θ style copy of the same values keeps its identity
			// distinct and hits the counting pass instead.
			frozen := dyn.FrozenFrequencies()
			copied := append([]int(nil), frozen...)

			label := "popdyn/" + prec.String()
			users := train.NumUsers()
			for k := 0; k < 30; k++ {
				u := types.UserID(rng.Intn(users))
				want := generalPopDynSweep(t, g, u, 5, frozen)
				assertSameSet(t, label+"/frozen", u, fastPopDynSweep(t, g, u, 5, frozen), want)
				assertSameSet(t, label+"/copied", u, fastPopDynSweep(t, g, u, 5, copied), want)
			}

			// Mutating the live state invalidates the snapshot and the cached
			// rank; the rebuilt snapshot must be served consistently too.
			for i := 0; i < 5; i++ {
				dyn.Observe(types.ItemID(rng.Intn(train.NumItems())))
			}
			refreshed := dyn.FrozenFrequencies()
			for k := 0; k < 10; k++ {
				u := types.UserID(rng.Intn(users))
				want := generalPopDynSweep(t, g, u, 5, refreshed)
				assertSameSet(t, label+"/refreshed", u, fastPopDynSweep(t, g, u, 5, refreshed), want)
			}
		}
	}
}

// TestSweepPopDynThetaExtremes pins the scaling boundaries: θ = 0 collapses
// every coverage score to one tie class (the rank walk defers to the counting
// pass there), and θ = 1 zeroes the accuracy boost so boosted items behave
// like plain candidates.
func TestSweepPopDynThetaExtremes(t *testing.T) {
	sp := equivSplit(t, 1)
	train := sp.Train
	rng := rand.New(rand.NewSource(41))
	for _, theta := range []float64{0, 1} {
		prefs := longtail.Constant(train.NumUsers(), theta)
		for _, prec := range popDynTiers {
			dyn := NewDynCoverage(train.NumItems())
			g, err := New(train, NewPopAccuracy(train, 5), prefs, dyn,
				Config{N: 5, Seed: 1, Precision: prec})
			if err != nil {
				t.Fatal(err)
			}
			freqState := make([]int, train.NumItems())
			for i := range freqState {
				freqState[i] = rng.Intn(30)
			}
			dyn.SetFrequencies(freqState)
			frozen := dyn.FrozenFrequencies()
			label := "popdyn-theta/" + prec.String()
			for k := 0; k < 20; k++ {
				u := types.UserID(rng.Intn(train.NumUsers()))
				want := generalPopDynSweep(t, g, u, 5, frozen)
				assertSameSet(t, label, u, fastPopDynSweep(t, g, u, 5, frozen), want)
			}
		}
	}
}
