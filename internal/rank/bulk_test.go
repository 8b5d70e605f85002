package rank

import (
	"bytes"
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

func bulkTestDataset() *dataset.Dataset {
	rng := rand.New(rand.NewSource(6))
	ratings := []types.Rating{{User: 14, Item: 24, Value: 3}}
	for k := 0; k < 400; k++ {
		ratings = append(ratings, types.Rating{
			User:  types.UserID(rng.Intn(15)),
			Item:  types.ItemID(rng.Intn(25)),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	return dataset.FromRatings("rank-bulk", ratings)
}

// kernelScore is the model's bulk score of one pair, spelt per item from the
// float64 rows: the pair kernel's dot of the truncated rows, the regression
// loss's train mean added in float64, the loss's fallback outside the model.
func kernelScore(m *Model, u types.UserID, i types.ItemID) float32 {
	base := 0.0
	if m.cfg.Loss == LossRegression {
		base = m.mean
	}
	if u < 0 || int(u) >= len(m.userF) || i < 0 || int(i) >= len(m.itemF) {
		return float32(base)
	}
	row32 := func(row []float64) []float32 {
		out := make([]float32, len(row))
		for f, v := range row {
			out[f] = float32(v)
		}
		return out
	}
	return float32(base + float64(linalg.Dot32x8(row32(m.userF[u]), row32(m.itemF[i]))))
}

// assertBulkContract holds the model's one bulk body to kernelScore for every
// user, the two just outside the model included: ScoreUser32 equals it
// exactly, and recommender.BulkScores, the float64 bulk contract, is those
// values widened.
func assertBulkContract(t *testing.T, m *Model, numUsers int, items []types.ItemID) {
	t.Helper()
	out := make([]float32, len(items))
	wide := make([]float64, len(items))
	for u := -1; u <= numUsers; u++ {
		uid := types.UserID(u)
		m.ScoreUser32(uid, items, out)
		recommender.BulkScores(m, uid, items, wide)
		for k, i := range items {
			want := kernelScore(m, uid, i)
			if out[k] != want {
				t.Fatalf("%s user %d item %d: ScoreUser32 %v, per-item kernel %v", m.Name(), u, i, out[k], want)
			}
			if wide[k] != float64(want) {
				t.Fatalf("%s user %d item %d: BulkScores %v, per-item kernel widened %v", m.Name(), u, i, wide[k], float64(want))
			}
		}
	}
}

func TestCofiScoreUserMatchesScore(t *testing.T) {
	d := bulkTestDataset()
	items := make([]types.ItemID, d.NumItems()+2)
	for k := range items {
		items[k] = types.ItemID(k)
	}
	for _, loss := range []Loss{LossRegression, LossPairwise} {
		cfg := DefaultConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed, cfg.Loss = 6, 3, 6, loss
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBulkContract(t, m, d.NumUsers(), items)
	}
}

// TestCofiScoreUser32MatchesPerItemKernel runs the same contract at 22
// factors (16 + 4 + 2), so every loop of the kernel runs, with identifiers
// outside the catalog between the in-range stretches, and on a model that
// went through Save and Load, whose blocks the decoder built.
func TestCofiScoreUser32MatchesPerItemKernel(t *testing.T) {
	d := bulkTestDataset()
	items := []types.ItemID{-1, types.ItemID(d.NumItems())}
	for i := 0; i < d.NumItems(); i++ {
		items = append(items, types.ItemID(i))
		if i == d.NumItems()/2 {
			items = append(items, types.ItemID(d.NumItems()+7), -5)
		}
	}
	items = append(items, 3, types.ItemID(d.NumItems()+1))
	for _, loss := range []Loss{LossRegression, LossPairwise} {
		cfg := DefaultConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed, cfg.Loss = 22, 3, 6, loss
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		assertBulkContract(t, m, d.NumUsers(), items)
		assertBulkContract(t, loaded, d.NumUsers(), items)
	}
}
