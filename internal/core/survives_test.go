package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/recommender"
	"ganc/internal/types"
)

// hashScorer32 is hashScorer with a float32 bulk path, as the factor models
// have: the normaliser then ranges, maps and compares in float32.
type hashScorer32 struct{ hashScorer }

func (h hashScorer32) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	for k, i := range items {
		out[k] = float32(h.Score(u, i))
	}
}

// TestSurvivesGrowth: whenever SurvivesGrowth keeps a list computed over the
// catalog's first items, a sweep over the grown catalog returns that list —
// for a normalised frozen scorer with and without a float32 bulk path, under
// Dyn and Stat coverage — and over the trials it both keeps and refuses. The new items are named once
// (an event introduced them), as ingestion leaves them.
func TestSurvivesGrowth(t *testing.T) {
	ctx := context.Background()
	const n = 5
	var kept, refused int
	for trial := int64(0); trial < 6; trial++ {
		train := equivSplit(t, trial).Train
		prefs := equivPrefs(t, train, trial)
		rng := rand.New(rand.NewSource(trial))
		from := train.NumItems()
		counts := make([]int, from)
		for i := range counts {
			counts[i] = rng.Intn(40)
		}
		var cold []types.Rating
		for k := 0; k < 1+int(trial)%3; k++ {
			i := train.ItemInterner().Intern(fmt.Sprintf("cold-%d", k))
			cold = append(cold, types.Rating{User: 0, Item: types.ItemID(i), Value: 4})
			counts = append(counts, 1)
		}
		grown := train.Extend(cold)
		var norm *recommender.NormalizedScorer
		for _, inner := range []recommender.Scorer{hashScorer{seed: uint64(trial)}, hashScorer32{hashScorer{seed: uint64(trial)}}} {
			norm = recommender.NewNormalizedScorer(inner, from)
			for _, cov := range []string{"Dyn", "Stat"} {
				coverage := func(counts []int) CoverageRecommender {
					if cov == "Dyn" {
						return NewDynCoverageFrom(counts)
					}
					return statCoverageOf(counts)
				}
				cfg := Config{N: n}
				before, err := New(train, norm, prefs, coverage(counts[:from]), cfg)
				if err != nil {
					t.Fatal(err)
				}
				after, err := New(grown, norm.ForCatalog(grown.NumItems()), prefs, coverage(counts), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for u := 0; u < train.NumUsers(); u++ {
					list, err := before.RecommendUser(ctx, types.UserID(u), n)
					if err != nil {
						t.Fatal(err)
					}
					if !after.SurvivesGrowth(types.UserID(u), list, from) {
						refused++
						continue
					}
					kept++
					if now, _ := after.RecommendUser(ctx, types.UserID(u), n); !slices.Equal(now, list) {
						t.Fatalf("trial %d %T %s: user %d's list %v was kept, a sweep over the grown catalog returns %v",
							trial, inner, cov, u, list, now)
					}
				}
			}
		}

		// What the proof does not cover is refused, whatever the scores.
		list := types.TopNSet{0}
		pop, err := New(grown, popArec(grown, n), prefs, NewDynCoverageFrom(counts), Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		random, err := New(grown, norm.ForCatalog(grown.NumItems()), prefs, NewRandCoverage(1), Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if pop.SurvivesGrowth(1, list, from) || random.SurvivesGrowth(1, list, from) {
			t.Fatal("a list was kept under an accuracy or coverage recommender the proof does not cover")
		}
	}
	if kept == 0 || refused == 0 {
		t.Fatalf("kept %d lists and refused %d: both must happen for the test to mean anything", kept, refused)
	}
	t.Logf("kept %d, refused %d", kept, refused)
}
