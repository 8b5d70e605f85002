package core

// Equivalence property tests for the candidate pipeline: across randomized
// synthetic datasets, the score-once sweeps must reproduce the pre-refactor
// per-pick rescan optimizer (kept verbatim in reference.go) — identical
// recommendations for the modular coverage objectives (Stat, and a
// deterministic Rand-style stand-in) and, for the submodular Dyn objective, an
// equal objective value and identical recommendations, under indicator (Pop)
// and dense accuracy scores alike.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// equivSplit generates a randomized synthetic dataset for one property trial,
// with a turn's edge cases added to its train set: a user who rated every
// item, and one whose adjacency names an item twice and grows the catalog by
// an item no one else rated.
func equivSplit(t *testing.T, trial int64) *dataset.Split {
	t.Helper()
	cfg := synth.ML100K(synth.Scale(0.06 + 0.02*float64(trial%3)))
	cfg.Seed = 500 + trial
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := d.SplitByUser(0.8, rand.New(rand.NewSource(trial)))
	users, items := types.UserID(sp.Train.NumUsers()), types.ItemID(sp.Train.NumItems())
	ratings := sp.Train.Ratings()
	for i := types.ItemID(0); i <= items; i++ {
		ratings = append(ratings, types.Rating{User: users, Item: i, Value: 3})
	}
	ratings = append(ratings,
		types.Rating{User: users + 1, Item: 2, Value: 4},
		types.Rating{User: users + 1, Item: 2, Value: 2},
		types.Rating{User: users + 1, Item: items, Value: 5})
	sp.Train = dataset.FromRatings(sp.Train.Name(), ratings)
	return sp
}

// equivPrefs estimates a θ vector, alternating models across trials so the
// equivalence holds for spread-out and concentrated preference shapes.
func equivPrefs(t *testing.T, train *dataset.Dataset, trial int64) *longtail.Preferences {
	t.Helper()
	models := []longtail.Model{longtail.ModelTFIDF, longtail.ModelGeneralized, longtail.ModelActivity}
	prefs, err := longtail.Estimate(models[trial%3], train, nil, 0.5, trial)
	if err != nil {
		t.Fatal(err)
	}
	return prefs
}

func assertSameCollections(t *testing.T, label string, got, want types.Recommendations) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: user counts differ: %d vs %d", label, len(got), len(want))
	}
	for u, wantSet := range want {
		gotSet := got[u]
		if len(gotSet) != len(wantSet) {
			t.Fatalf("%s: user %d set sizes differ: %v vs %v", label, u, gotSet, wantSet)
		}
		for k := range wantSet {
			if gotSet[k] != wantSet[k] {
				t.Fatalf("%s: user %d: new %v != reference %v", label, u, gotSet, wantSet)
			}
		}
	}
}

func TestSweepEquivalenceStatCoverage(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		sp := equivSplit(t, trial)
		train := sp.Train
		prefs := equivPrefs(t, train, trial)
		g, err := New(train, popArec(train, 5), prefs, NewStatCoverage(train), Config{N: 5, Seed: trial})
		if err != nil {
			t.Fatal(err)
		}
		newRecs := g.Recommend()
		refRecs := g.ReferenceRecommendAll()
		assertSameCollections(t, "Stat", newRecs, refRecs)
	}
}

// hashScore is a deterministic per-(user, item) pseudo-random score in [0,1],
// drawn from a thousand values so ties occur.
func hashScore(seed uint64, u types.UserID, i types.ItemID) float64 {
	x := seed ^ (uint64(uint32(u)) << 32) ^ uint64(uint32(i))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x%1000) / 999.0
}

// hashCoverage is a deterministic stand-in for the Rand coverage recommender:
// scores that, unlike RandCoverage's shared rng, do not depend on evaluation
// order, so the pre-refactor per-pick rescan and the score-once sweep can be
// compared exactly. It has no bulk path: the sweep fills it pointwise.
type hashCoverage struct{ seed uint64 }

func (h *hashCoverage) CoverageScore(u types.UserID, i types.ItemID) float64 {
	return hashScore(h.seed, u, i)
}
func (h *hashCoverage) Observe(types.ItemID) {}
func (h *hashCoverage) Name() string         { return "Hash" }

// hashCoverageBulk adds the BulkCoverage contract on top of hashCoverage.
type hashCoverageBulk struct{ hashCoverage }

func (h *hashCoverageBulk) CoverageRow(u types.UserID, rated []types.ItemID, row []float64) {
	fillCandidates(row, rated, func(i types.ItemID) float64 { return hashScore(h.seed, u, i) })
}

// hashScorer is a dense deterministic base scorer: every candidate carries a
// different accuracy term, where Pop's indicator gives all but N of them zero.
type hashScorer struct{ seed uint64 }

func (h hashScorer) Score(u types.UserID, i types.ItemID) float64 { return hashScore(h.seed, u, i) }
func (h hashScorer) Name() string                                 { return "HashScorer" }

// equivAccuracies are the accuracy recommenders the Dyn comparisons run
// under: the paper's sparse Pop indicator and a dense scorer.
func equivAccuracies(train *dataset.Dataset, trial int64) []AccuracyRecommender {
	return []AccuracyRecommender{
		popArec(train, 5),
		&ScorerAccuracy{Scorer: hashScorer{seed: uint64(trial)*104729 + 7}},
	}
}

func TestSweepEquivalenceRandStyleCoverage(t *testing.T) {
	// RandCoverage itself redraws from a shared rng on every evaluation, so
	// the old and new paths consume it in different orders and cannot be
	// compared bit-for-bit; a deterministic per-(u,i) hash reproduces the
	// "independent uniform score" objective in an order-free way.
	for trial := int64(0); trial < 4; trial++ {
		sp := equivSplit(t, trial)
		train := sp.Train
		prefs := equivPrefs(t, train, trial)
		for _, crec := range []CoverageRecommender{
			&hashCoverageBulk{hashCoverage{seed: uint64(trial)*7919 + 13}}, // one bulk call
			&hashCoverage{seed: uint64(trial)*7919 + 13},                   // pointwise fill
		} {
			g, err := New(train, popArec(train, 5), prefs, crec, Config{N: 5, Seed: trial})
			if err != nil {
				t.Fatal(err)
			}
			newRecs := g.Recommend()
			refRecs := g.ReferenceRecommendAll()
			assertSameCollections(t, "Rand-style/"+crec.Name(), newRecs, refRecs)
		}
	}
}

func TestSweepEquivalenceDynObjectiveValue(t *testing.T) {
	// For the submodular Dyn objective the acceptance bar is equality of the
	// objective value (preserving the 1/2-approximation guarantee); in
	// practice the per-user subproblems have identical optima and the sets
	// match exactly, which is asserted too.
	for trial := int64(0); trial < 4; trial++ {
		sp := equivSplit(t, trial)
		train := sp.Train
		prefs := equivPrefs(t, train, trial)
		for _, arec := range equivAccuracies(train, trial) {
			for _, sampleSize := range []int{0, train.NumUsers() / 4} {
				build := func() *GANC {
					g, err := New(train, arec, prefs, NewDynCoverage(train.NumItems()),
						Config{N: 5, SampleSize: sampleSize, Seed: trial})
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				gNew, gRef := build(), build()
				newRecs := gNew.Recommend()
				refRecs := gRef.ReferenceRecommendAll()
				newVal := gNew.ValueOf(newRecs)
				refVal := gRef.ValueOf(refRecs)
				if math.Abs(newVal-refVal) > 1e-9 {
					t.Fatalf("trial %d %s S=%d: Dyn objective differs: new %.12f vs reference %.12f",
						trial, arec.Name(), sampleSize, newVal, refVal)
				}
				assertSameCollections(t, "Dyn/"+arec.Name(), newRecs, refRecs)
			}
		}
	}
}

func TestSweepEquivalenceOnlineRecommendUser(t *testing.T) {
	sp := equivSplit(t, 1)
	train := sp.Train
	prefs := equivPrefs(t, train, 1)
	ctx := context.Background()
	for _, arec := range equivAccuracies(train, 1) {
		for _, crec := range []CoverageRecommender{
			NewStatCoverage(train),
			NewDynCoverage(train.NumItems()),
		} {
			label := arec.Name() + "+" + crec.Name()
			g, err := New(train, arec, prefs, crec, Config{N: 5, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := crec.(*DynCoverage); ok {
				// Advance the Dyn state so the frozen snapshot is non-trivial.
				_ = g.Recommend()
			}
			users := []int{train.NumUsers() - 2, train.NumUsers() - 1} // equivSplit's edge cases
			for u := 0; u < 30 && u < train.NumUsers(); u++ {
				users = append(users, u)
			}
			for _, u := range users {
				uid := types.UserID(u)
				got, err := g.RecommendUser(ctx, uid, 7)
				if err != nil {
					t.Fatal(err)
				}
				want, err := g.ReferenceRecommendUser(ctx, uid, 7)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s user %d: %v vs %v", label, u, got, want)
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("%s user %d: new %v != reference %v", label, u, got, want)
					}
				}
			}
		}
	}
}

func TestSweepEquivalenceShardedMatchesSequential(t *testing.T) {
	// The sharded worker pool must not change outputs: same collection for
	// any worker count, for both the stateless sweep and OSLG out-of-sample.
	sp := equivSplit(t, 2)
	train := sp.Train
	prefs := equivPrefs(t, train, 2)
	for _, tc := range []struct {
		name   string
		build  func() CoverageRecommender
		sample int
	}{
		{"Stat", func() CoverageRecommender { return NewStatCoverage(train) }, 0},
		{"Dyn-OSLG", func() CoverageRecommender { return NewDynCoverage(train.NumItems()) }, train.NumUsers() / 5},
	} {
		run := func(workers int) types.Recommendations {
			g, err := New(train, popArec(train, 5), prefs, tc.build(),
				Config{N: 5, SampleSize: tc.sample, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			return g.Recommend()
		}
		assertSameCollections(t, tc.name, run(8), run(1))
	}
}
