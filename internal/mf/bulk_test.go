package mf

import (
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/types"
)

// bulkSplitDataset builds a small random dataset for the bulk-contract tests.
func bulkSplitDataset(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ratings := []types.Rating{{User: 24, Item: 49, Value: 3}}
	for k := 0; k < 600; k++ {
		ratings = append(ratings, types.Rating{
			User:  types.UserID(rng.Intn(25)),
			Item:  types.ItemID(rng.Intn(50)),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	return dataset.FromRatings("mf-bulk", ratings)
}

// assertBulkContract verifies ScoreUser against the pointwise Score,
// including out-of-range users and items.
func assertBulkContract(t *testing.T, name string, score func(types.UserID, types.ItemID) float64,
	scoreUser func(types.UserID, []types.ItemID, []float64), numUsers, numItems int) {
	t.Helper()
	items := make([]types.ItemID, numItems+3)
	for k := range items {
		items[k] = types.ItemID(k)
	}
	out := make([]float64, len(items))
	for u := -1; u <= numUsers; u++ {
		uid := types.UserID(u)
		scoreUser(uid, items, out)
		for k, i := range items {
			if want := score(uid, i); out[k] != want {
				t.Fatalf("%s: user %d item %d: bulk %v != score %v", name, u, i, out[k], want)
			}
		}
	}
}

func TestRSVDScoreUserMatchesScore(t *testing.T) {
	d := bulkSplitDataset(1)
	for _, useBiases := range []bool{true, false} {
		cfg := DefaultRSVDConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed = 6, 4, 1
		cfg.UseBiases = useBiases
		m, err := TrainRSVD(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertBulkContract(t, m.Name(), m.Score, m.ScoreUser, d.NumUsers(), d.NumItems())
	}
}

func TestPSVDScoreUserMatchesScore(t *testing.T) {
	d := bulkSplitDataset(2)
	m, err := TrainPSVD(d, PSVDConfig{Factors: 8, PowerIterations: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBulkContract(t, m.Name(), m.Score, m.ScoreUser, d.NumUsers(), d.NumItems())
}

// kernelTestItems is an item slice for the float32-tier tests: the catalog in
// order with identifiers outside it leading, trailing, adjacent and in the
// middle, so the row kernel runs over several in-range stretches.
func kernelTestItems(numItems int) []types.ItemID {
	items := []types.ItemID{-1, types.ItemID(numItems)}
	for i := 0; i < numItems; i++ {
		items = append(items, types.ItemID(i))
		if i == numItems/2 {
			items = append(items, types.ItemID(numItems+7), -5)
		}
	}
	return append(items, 3, types.ItemID(numItems+1))
}

// TestScoreUser32MatchesPerItemKernel holds the float32 tier's bulk scores to
// the per-item expression they were computed by before one row-kernel call
// replaced the loop: the pair kernel's dot per item, the mean and bias terms
// added in float64, the model's own fallback for an identifier outside the
// catalog. Equality is exact.
func TestScoreUser32MatchesPerItemKernel(t *testing.T) {
	d := bulkSplitDataset(3)
	items := kernelTestItems(d.NumItems())
	out := make([]float32, len(items))

	for _, useBiases := range []bool{true, false} {
		cfg := DefaultRSVDConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed = 22, 3, 3 // 16 + 4 + 2: every kernel loop runs
		cfg.UseBiases = useBiases
		m, err := TrainRSVD(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPrecision(types.PrecisionF32)
		for u := 0; u < d.NumUsers(); u++ {
			m.ScoreUser32(types.UserID(u), items, out)
			base := m.globalMean
			if useBiases {
				base += m.userBias[u]
			}
			for k, i := range items {
				want := float32(m.globalMean)
				if i >= 0 && int(i) < d.NumItems() {
					s := base + float64(linalg.Dot32x8(m.fp.UserB.Row(u), m.fp.ItemB.Row(int(i))))
					if useBiases {
						s += m.itemBias[i]
					}
					want = float32(s)
				}
				if out[k] != want {
					t.Fatalf("RSVD biases=%v user %d item %d: ScoreUser32 %v, per-item kernel %v", useBiases, u, i, out[k], want)
				}
			}
		}
	}

	p, err := TrainPSVD(d, PSVDConfig{Factors: 22, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPrecision(types.PrecisionF32)
	for u := 0; u < d.NumUsers(); u++ {
		p.ScoreUser32(types.UserID(u), items, out)
		for k, i := range items {
			want := float32(0)
			if i >= 0 && int(i) < d.NumItems() {
				want = linalg.Dot32x8(p.fp.UserB.Row(u), p.fp.ItemB.Row(int(i)))
			}
			if out[k] != want {
				t.Fatalf("PSVD user %d item %d: ScoreUser32 %v, per-item kernel %v", u, i, out[k], want)
			}
		}
	}
}
