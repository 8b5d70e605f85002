package mf

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

// assertBulkContract holds a factor model's bulk bodies to want, the
// per-item expression they stand for — the pair kernel's dot per item, the
// mean and bias terms added in float64, the model's own fallback for an
// identifier outside the model — for every user, the two just outside the
// model included: ScoreUser32 equals it exactly, recommender.BulkScores, the
// float64 bulk contract, is those values widened, and ScoreCatalog32 has the
// bits of ScoreUser32 over the same catalog, which BoundCatalog32 bounds
// (assertCatalogBody).
func assertBulkContract(t *testing.T, m recommender.CatalogScorer32, want func(u types.UserID, i types.ItemID) float32, numUsers, numItems int) {
	t.Helper()
	items := kernelTestItems(numItems)
	out := make([]float32, len(items))
	wide := make([]float64, len(items))
	for u := -1; u <= numUsers; u++ {
		uid := types.UserID(u)
		assertCatalogBody(t, m, uid, numItems)
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

// assertCatalogBody holds ScoreCatalog32 to ScoreUser32 over the identity
// catalog, bit for bit, for catalogs shorter than the model's item block,
// equal to it and longer (the items the catalog grew by after training),
// each starting at every offset of a larger buffer so the epilogue's pairs
// start unaligned too.
func assertCatalogBody(t *testing.T, m recommender.CatalogScorer32, u types.UserID, numItems int) {
	t.Helper()
	for _, n := range []int{0, 1, 2, 3, numItems - 3, numItems, numItems + 1, numItems + 6} {
		want := make([]float32, n)
		m.ScoreUser32(u, types.CatalogItems(n), want)
		for off := 0; off < 4; off++ {
			buf := make([]float32, off+n+1)
			buf[off+n] = 42 // past the catalog: must stay
			got := buf[off : off+n]
			m.ScoreCatalog32(u, got)
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s: user %d, catalog of %d at offset %d: ScoreCatalog32 item %d = %v, ScoreUser32 %v", m.Name(), u, n, off, i, got[i], want[i])
				}
			}
			if buf[off+n] != 42 {
				t.Fatalf("%s: user %d, catalog of %d: ScoreCatalog32 wrote past its buffer", m.Name(), u, n)
			}
			assertBoundRow(t, m.(recommender.CatalogBounder32), u, n, want)
		}
	}
}

// assertBoundRow holds BoundCatalog32 over a catalog of n to the scores want
// of ScoreUser32 over it: a user of the model (these rows are ordinary) is
// bounded, each upper bound — beside the lower row and alone — is at least
// the item's score and each lower bound at most it, and an unknown user is
// not bounded.
func assertBoundRow(t *testing.T, m recommender.CatalogBounder32, u types.UserID, n int, want []float32) {
	t.Helper()
	upper, lower, alone := make([]float32, n), make([]float32, n), make([]float32, n)
	ok := m.BoundCatalog32(u, upper, lower)
	if known := u >= 0 && int(u) < numUsersOf(m); ok != known || m.BoundCatalog32(u, alone, nil) != ok {
		t.Fatalf("%s: user %d (a user of the model: %v): BoundCatalog32 reported %v", m.Name(), u, known, ok)
	}
	if !ok {
		return
	}
	for i := range want {
		if !(lower[i] <= want[i] && want[i] <= upper[i] && want[i] <= alone[i]) {
			t.Fatalf("%s: user %d, catalog of %d: item %d bounds [%v, %v] (alone %v), score %v", m.Name(), u, n, i, lower[i], upper[i], alone[i], want[i])
		}
	}
}

// numUsersOf is the number of user rows of a factor model.
func numUsersOf(m recommender.CatalogBounder32) int {
	switch m := m.(type) {
	case *RSVD:
		return len(m.userF)
	case *PSVD:
		return m.numUsers
	}
	panic("not a factor model of this package")
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
