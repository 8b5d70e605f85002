package rank

import (
	"bytes"
	"math"
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

// assertBulkContract holds the model's bulk bodies to kernelScore for every
// user, the two just outside the model included: ScoreUser32 equals it
// exactly, recommender.BulkScores, the float64 bulk contract, is those values
// widened, and ScoreCatalog32 has the bits of ScoreUser32 over the same
// catalog — shorter than the item block, equal to it and longer, starting at
// every offset of a larger buffer; and BoundCatalog32 bounds the scores
// from both sides.
func assertBulkContract(t *testing.T, m *Model, numUsers int, items []types.ItemID) {
	t.Helper()
	out := make([]float32, len(items))
	wide := make([]float64, len(items))
	numItems := len(m.itemF)
	for u := -1; u <= numUsers; u++ {
		uid := types.UserID(u)
		for _, n := range []int{0, 1, 2, 3, numItems - 3, numItems, numItems + 1, numItems + 6} {
			want := make([]float32, n)
			m.ScoreUser32(uid, types.CatalogItems(n), want)
			for off := 0; off < 4; off++ {
				buf := make([]float32, off+n+1)
				buf[off+n] = 42
				got := buf[off : off+n]
				m.ScoreCatalog32(uid, got)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s user %d, catalog of %d at offset %d: ScoreCatalog32 item %d = %v, ScoreUser32 %v", m.Name(), u, n, off, i, got[i], want[i])
					}
				}
				if buf[off+n] != 42 {
					t.Fatalf("%s user %d, catalog of %d: ScoreCatalog32 wrote past its buffer", m.Name(), u, n)
				}
			}
			// BoundCatalog32 bounds every score of a user of the model (these
			// rows are ordinary), and no unknown user's.
			upper, lower := make([]float32, n), make([]float32, n)
			if ok := m.BoundCatalog32(uid, upper, lower); ok != (u >= 0 && u < len(m.userF)) {
				t.Fatalf("%s user %d: BoundCatalog32 reported %v", m.Name(), u, ok)
			} else if ok {
				for i := range want {
					if !(lower[i] <= want[i] && want[i] <= upper[i]) {
						t.Fatalf("%s user %d, catalog of %d: item %d bounds [%v, %v], score %v", m.Name(), u, n, i, lower[i], upper[i], want[i])
					}
				}
			}
		}
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
		loaded, err := Load(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		assertBulkContract(t, m, d.NumUsers(), items)
		assertBulkContract(t, loaded, d.NumUsers(), items)
	}
}
