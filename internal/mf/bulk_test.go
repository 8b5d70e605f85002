package mf

import (
	"bytes"
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/recommender"
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

// kernelTestItems is an item slice for the bulk-contract tests: the catalog in
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

// assertBulkContract holds a factor model's one bulk body to want, the
// per-item expression it stands for — the pair kernel's dot per item, the
// mean and bias terms added in float64, the model's own fallback for an
// identifier outside the model — for every user, the two just outside the
// model included: ScoreUser32 equals it exactly, and recommender.BulkScores,
// the float64 bulk contract, is those values widened.
func assertBulkContract(t *testing.T, m recommender.BulkScorer32, want func(u types.UserID, i types.ItemID) float32, numUsers, numItems int) {
	t.Helper()
	items := kernelTestItems(numItems)
	out := make([]float32, len(items))
	wide := make([]float64, len(items))
	for u := -1; u <= numUsers; u++ {
		uid := types.UserID(u)
		m.ScoreUser32(uid, items, out)
		recommender.BulkScores(m, uid, items, wide)
		for k, i := range items {
			w := want(uid, i)
			if out[k] != w {
				t.Fatalf("%s: user %d item %d: ScoreUser32 %v, per-item kernel %v", m.Name(), u, i, out[k], w)
			}
			if wide[k] != float64(w) {
				t.Fatalf("%s: user %d item %d: BulkScores %v, per-item kernel widened %v", m.Name(), u, i, wide[k], float64(w))
			}
		}
	}
}

// row32 truncates a float64 factor row, as the model's blocks hold it.
func row32(row []float64) []float32 {
	out := make([]float32, len(row))
	for f, v := range row {
		out[f] = float32(v)
	}
	return out
}

// rsvdKernelScore is RSVD's bulk score of one pair, spelt per item from the
// float64 rows.
func rsvdKernelScore(m *RSVD, u types.UserID, i types.ItemID) float32 {
	if u < 0 || int(u) >= len(m.userF) || i < 0 || int(i) >= len(m.itemF) {
		return float32(m.globalMean)
	}
	s := m.globalMean
	if m.cfg.UseBiases {
		s += m.userBias[u]
	}
	s += float64(linalg.Dot32x8(row32(m.userF[u]), row32(m.itemF[i])))
	if m.cfg.UseBiases {
		s += m.itemBias[i]
	}
	return float32(s)
}

// psvdKernelScore is PSVD's: the kernel dot, zero outside the model.
func psvdKernelScore(m *PSVD, u types.UserID, i types.ItemID) float32 {
	if u < 0 || int(u) >= m.numUsers || i < 0 || int(i) >= m.numItems {
		return 0
	}
	return linalg.Dot32x8(row32(m.userF[u]), row32(m.itemF[i]))
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
		assertBulkContract(t, m, func(u types.UserID, i types.ItemID) float32 { return rsvdKernelScore(m, u, i) }, d.NumUsers(), d.NumItems())
	}
}

func TestPSVDScoreUserMatchesScore(t *testing.T) {
	d := bulkSplitDataset(2)
	m, err := TrainPSVD(d, PSVDConfig{Factors: 8, PowerIterations: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertBulkContract(t, m, func(u types.UserID, i types.ItemID) float32 { return psvdKernelScore(m, u, i) }, d.NumUsers(), d.NumItems())
}

// TestScoreUser32MatchesPerItemKernel runs the same contract at 22 factors
// (16 + 4 + 2), so every loop of the kernel runs, and on a model that went
// through Save and Load, whose blocks the decoder built.
func TestScoreUser32MatchesPerItemKernel(t *testing.T) {
	d := bulkSplitDataset(3)
	for _, useBiases := range []bool{true, false} {
		cfg := DefaultRSVDConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed = 22, 3, 3
		cfg.UseBiases = useBiases
		m, err := TrainRSVD(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadRSVD(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*RSVD{m, loaded} {
			assertBulkContract(t, m, func(u types.UserID, i types.ItemID) float32 { return rsvdKernelScore(m, u, i) }, d.NumUsers(), d.NumItems())
		}
	}

	p, err := TrainPSVD(d, PSVDConfig{Factors: 22, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPSVD(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*PSVD{p, loaded} {
		assertBulkContract(t, p, func(u types.UserID, i types.ItemID) float32 { return psvdKernelScore(p, u, i) }, d.NumUsers(), d.NumItems())
	}
}
