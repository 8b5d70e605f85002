package ganc

import (
	"math"
	"testing"

	"ganc/internal/recommender"
)

// bulkCase is one scorer under the shared BulkScorer edge-case suite.
type bulkCase struct {
	name   string
	scorer Scorer
}

// bulkEdgeFixtures builds every bulk-scoring implementation in the library
// (non-personalized baselines, all three factor models, the neighbourhood
// model, and the normalizing wrapper) on one small train set. A name ending in
// f32 marks a float32 bulk body.
func bulkEdgeFixtures(t *testing.T, train *Dataset) []bulkCase {
	t.Helper()
	rsvd, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	psvd, err := TrainPSVD(train, PSVDConfig{Factors: 8, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cofi, err := TrainCofi(train, CofiConfig{
		Factors: 8, Regularization: 0.05, LearningRate: 0.02,
		Epochs: 2, InitStd: 0.1, Seed: 3, PairsPerUser: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	iknn, err := TrainItemKNN(train, DefaultItemKNNConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []bulkCase{
		{"Pop", NewPop(train)},
		{"ItemAvg", recommender.NewItemAvg(train, 5)},
		{"RSVD/f32", rsvd},
		{"PSVD/f32", psvd},
		{"CofiRank/f32", cofi},
		{"ItemKNN", iknn},
		{"Normalized(RSVD/f32)", recommender.NewNormalizedScorer(rsvd, train.NumItems())},
	}
}

// TestBulkScorerEdgeCases drives every implementation through the boundary
// inputs of the BulkScorer/BulkScorer32 contract: empty item slices write
// nothing, out-of-range user and item identifiers take the documented
// fallbacks without panicking — a float64 bulk body stays equal to the
// pointwise Score fallback, and a model whose only bulk body is the float32
// one serves BulkScores those scores widened — and an undersized out buffer
// panics instead of silently truncating the fill.
func TestBulkScorerEdgeCases(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	oobUser := UserID(train.NumUsers() + 7)
	edgeItems := []ItemID{0, ItemID(train.NumItems() - 1), ItemID(train.NumItems() + 99), -1}

	for _, tc := range bulkEdgeFixtures(t, train) {
		t.Run(tc.name, func(t *testing.T) {
			bs, has64 := tc.scorer.(recommender.BulkScorer)
			bs32, has32 := tc.scorer.(recommender.BulkScorer32)
			if !has64 && !has32 {
				t.Fatalf("%T implements neither BulkScorer nor BulkScorer32", tc.scorer)
			}

			// Empty item slices: no write, no panic, on both paths.
			recommender.BulkScores(tc.scorer, 0, nil, nil)
			recommender.BulkScores(tc.scorer, oobUser, []ItemID{}, []float64{})
			if has32 {
				bs32.ScoreUser32(0, nil, nil)
			}

			for _, u := range []UserID{0, oobUser} {
				out := make([]float64, len(edgeItems))
				recommender.BulkScores(tc.scorer, u, edgeItems, out)
				out32 := make([]float32, len(edgeItems))
				if has32 {
					bs32.ScoreUser32(u, edgeItems, out32)
				}
				for k, i := range edgeItems {
					if math.IsNaN(out[k]) || math.IsInf(out[k], 0) {
						t.Fatalf("BulkScores(u=%d, i=%d) = %v, want finite", u, i, out[k])
					}
					switch {
					case !has32:
						if out[k] != tc.scorer.Score(u, i) {
							t.Fatalf("BulkScores(u=%d, i=%d) = %v differs from Score = %v", u, i, out[k], tc.scorer.Score(u, i))
						}
					case !has64:
						if out[k] != float64(out32[k]) {
							t.Fatalf("BulkScores(u=%d, i=%d) = %v is not ScoreUser32's %v widened", u, i, out[k], out32[k])
						}
					}
					if f := float64(out32[k]); math.IsNaN(f) || math.IsInf(f, 0) {
						t.Fatalf("ScoreUser32(u=%d, i=%d) = %v, want finite", u, i, out32[k])
					}
				}
			}

			// An out buffer shorter than items must panic, not part-fill.
			if has64 {
				mustPanic(t, "ScoreUser with short out", func() {
					bs.ScoreUser(0, edgeItems, make([]float64, len(edgeItems)-1))
				})
			}
			if has32 {
				mustPanic(t, "ScoreUser32 with short out", func() {
					bs32.ScoreUser32(0, edgeItems, make([]float32, len(edgeItems)-1))
				})
			}
		})
	}
}

// TestBulkScoresLengthContract pins the helper's explicit mismatch check:
// BulkScores rejects any out length that differs from the item count, longer
// as well as shorter, for bulk and pointwise-fallback scorers alike.
func TestBulkScoresLengthContract(t *testing.T) {
	split := pipelineFixture(t)
	pop := NewPop(split.Train)
	items := []ItemID{0, 1, 2}
	mustPanic(t, "short out", func() {
		recommender.BulkScores(pop, 0, items, make([]float64, 2))
	})
	mustPanic(t, "long out", func() {
		recommender.BulkScores(pop, 0, items, make([]float64, 4))
	})
	out := make([]float64, len(items))
	recommender.BulkScores(pop, 0, items, out)
	for k, i := range items {
		if out[k] != pop.Score(0, i) {
			t.Fatalf("BulkScores[%d] = %v, want %v", k, out[k], pop.Score(0, i))
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
