package rank

import (
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
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

func TestCofiScoreUserMatchesScore(t *testing.T) {
	d := bulkTestDataset()
	for _, loss := range []Loss{LossRegression, LossPairwise} {
		cfg := DefaultConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed, cfg.Loss = 6, 3, 6, loss
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]types.ItemID, d.NumItems()+2)
		for k := range items {
			items[k] = types.ItemID(k)
		}
		out := make([]float64, len(items))
		for u := -1; u <= d.NumUsers(); u++ {
			uid := types.UserID(u)
			m.ScoreUser(uid, items, out)
			for k, i := range items {
				if want := m.Score(uid, i); out[k] != want {
					t.Fatalf("loss %v user %d item %d: bulk %v != score %v", loss, u, i, out[k], want)
				}
			}
		}
	}
}

// TestCofiScoreUser32MatchesPerItemKernel holds the float32 tier's bulk
// scores to the per-item expression they were computed by before one
// row-kernel call replaced the loop — the pair kernel's dot widened, the
// regression loss's train mean added in float64 — with identifiers outside
// the catalog between the in-range stretches. Equality is exact.
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
	out := make([]float32, len(items))
	for _, loss := range []Loss{LossRegression, LossPairwise} {
		cfg := DefaultConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed, cfg.Loss = 22, 3, 6, loss // 16 + 4 + 2: every kernel loop runs
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPrecision(types.PrecisionF32)
		base := 0.0
		if loss == LossRegression {
			base = m.mean
		}
		for u := 0; u < d.NumUsers(); u++ {
			m.ScoreUser32(types.UserID(u), items, out)
			for k, i := range items {
				want := float32(base)
				if i >= 0 && int(i) < d.NumItems() {
					want = float32(base + float64(linalg.Dot32x8(m.fp.UserB.Row(u), m.fp.ItemB.Row(int(i)))))
				}
				if out[k] != want {
					t.Fatalf("loss %v user %d item %d: ScoreUser32 %v, per-item kernel %v", loss, u, i, out[k], want)
				}
			}
		}
	}
}
