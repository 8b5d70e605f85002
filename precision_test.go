package ganc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"ganc/internal/persist"
	"ganc/internal/recommender"
)

// Bulk-scoring tolerance policy (DESIGN.md §12). Pointwise Score at float64 is
// the oracle; a factor model's bulk scores come from the float32 row kernel
// and are not bit-identical to it, they are held to the documented tolerances
// below instead:
//
//   - per-score error, measured relative to the user's full-catalog score
//     range: ≤ f32ScoreTol (kernel rounding only);
//   - ranking agreement: the mean top-10 overlap with the float64 oracle
//     across sampled users must stay above f32OverlapMin.
const (
	f32ScoreTol   = 1e-3
	f32OverlapMin = 0.90
	equivTopN     = 10
)

func smallRSVDConfig() RSVDConfig {
	cfg := DefaultRSVDConfig()
	cfg.Factors = 16
	cfg.Epochs = 6
	cfg.Seed = 3
	return cfg
}

// trainFactorScorers fits one small instance of every factor model on train.
func trainFactorScorers(t *testing.T, train *Dataset) map[string]BulkScorer32 {
	t.Helper()
	rsvd, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	psvd, err := TrainPSVD(train, PSVDConfig{Factors: 16, PowerIterations: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cofi, err := TrainCofi(train, CofiConfig{
		Factors: 16, Regularization: 0.05, LearningRate: 0.02,
		Epochs: 4, InitStd: 0.1, Seed: 3, PairsPerUser: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BulkScorer32{"RSVD": rsvd, "PSVD": psvd, "CofiRank": cofi}
}

// float64Bulk hides a model's float32 bulk body: what a custom scorer with a
// float64 bulk method alone shows a pipeline. Its bulk scores are the model's
// (recommender.BulkScores widens them).
type float64Bulk struct{ Scorer }

func (f float64Bulk) ScoreUser(u UserID, items []ItemID, out []float64) {
	recommender.BulkScores(f.Scorer, u, items, out)
}

// respellSnapshotPrecision rewrites the snapshot at path with its meta
// section's Precision set to spelling — the field builds with a precision
// option wrote ("f64", "f32", once "int8") and this one only reads.
func respellSnapshotPrecision(t *testing.T, path, spelling string) {
	t.Helper()
	snap, err := persist.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt persist.Builder
	for _, name := range snap.Sections() {
		payload, err := snap.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if name != sectionMeta {
			rebuilt.Add(name, payload)
			continue
		}
		var meta snapshotMeta
		if err := snap.Gob(name, &meta); err != nil {
			t.Fatal(err)
		}
		meta.Precision = spelling
		if err := rebuilt.AddGob(name, &meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := rebuilt.Save(path); err != nil {
		t.Fatal(err)
	}
}

// sampleUsers returns up to max users spread evenly across [0, numUsers).
func sampleUsers(numUsers, max int) []UserID {
	if numUsers < max {
		max = numUsers
	}
	out := make([]UserID, 0, max)
	for k := 0; k < max; k++ {
		out = append(out, UserID(k*numUsers/max))
	}
	return out
}

// fullCatalog returns the identity item slice [0, numItems).
func fullCatalog(numItems int) []ItemID {
	catalog := make([]ItemID, numItems)
	for i := range catalog {
		catalog[i] = ItemID(i)
	}
	return catalog
}

// overlapFrac returns the fraction of oracle's items present in got.
func overlapFrac(oracle, got TopNSet) float64 {
	if len(oracle) == 0 {
		return 1
	}
	in := make(map[ItemID]bool, len(got))
	for _, i := range got {
		in[i] = true
	}
	hits := 0
	for _, i := range oracle {
		if in[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(oracle))
}

// pointwiseScores is the oracle: one float64 Score call per catalog item.
func pointwiseScores(m Scorer, u UserID, catalog []ItemID) []float64 {
	out := make([]float64, len(catalog))
	for k, i := range catalog {
		out[k] = m.Score(u, i)
	}
	return out
}

// TestReducedPrecisionBulkScoreTolerance pins the numeric half of the policy:
// every factor model's bulk scores stay within the documented relative
// tolerance of pointwise Score, and its float64 bulk contract is those scores
// widened, never a second computation.
func TestReducedPrecisionBulkScoreTolerance(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 20)

	for name, m := range trainFactorScorers(t, train) {
		got32 := make([]float32, len(catalog))
		got64 := make([]float64, len(catalog))
		worstRel := 0.0
		for _, u := range users {
			exact := pointwiseScores(m, u, catalog)
			lo, hi := exact[0], exact[0]
			for _, s := range exact {
				lo, hi = math.Min(lo, s), math.Max(hi, s)
			}
			span := hi - lo
			if span == 0 {
				span = 1
			}
			m.ScoreUser32(u, catalog, got32)
			recommender.BulkScores(m, u, catalog, got64)
			for k := range catalog {
				if rel := math.Abs(float64(got32[k])-exact[k]) / span; rel > worstRel {
					worstRel = rel
				}
				if got64[k] != float64(got32[k]) {
					t.Fatalf("%s: float64 bulk score of item %d is not the float32 one widened", name, k)
				}
			}
		}
		t.Logf("%s: worst per-score error %.2e of range (tolerance %.0e)", name, worstRel, f32ScoreTol)
		if worstRel > f32ScoreTol {
			t.Errorf("%s: worst per-score error %.3g of range exceeds tolerance %g", name, worstRel, f32ScoreTol)
		}
	}
}

// TestReducedPrecisionTopNAgreement pins the ranking half of the policy: the
// candidate-pipeline top-10 lists, selected from the bulk scores, overlap the
// lists selected from pointwise Score above the floor.
func TestReducedPrecisionTopNAgreement(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 40)

	for name, m := range trainFactorScorers(t, train) {
		topn := &recommender.ScorerTopN{Scorer: m}
		sum := 0.0
		for _, u := range users {
			oracle := recommender.SelectTop(catalog, pointwiseScores(m, u, catalog), equivTopN)
			sum += overlapFrac(oracle, topn.Recommend(u, equivTopN, catalog))
		}
		mean := sum / float64(len(users))
		t.Logf("%s: mean top-%d overlap with the float64 oracle %.3f (floor %.2f)", name, equivTopN, mean, f32OverlapMin)
		if mean < f32OverlapMin {
			t.Errorf("%s: mean top-%d overlap %.3f below floor %.2f", name, equivTopN, mean, f32OverlapMin)
		}
	}
}

// TestSavedPipelineServesKernelTier is the deployment recipe (train, Save,
// LoadEngine, no option anywhere): the loaded base serves the float32 row
// kernel — its bulk scores carry the trained model's bits, not pointwise
// Score's — so what gancd serves from `ganc -save` is the tier
// benchmark/ measures.
func TestSavedPipelineServesKernelTier(t *testing.T) {
	train := pipelineFixture(t).Train
	catalog := fullCatalog(train.NumItems())
	for name, m := range trainFactorScorers(t, train) {
		cold, err := NewPipeline(train, WithBase(m), WithTopN(equivTopN), WithPreferences(PreferenceTFIDF), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".snap")
		if err := cold.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngine(path)
		if err != nil {
			t.Fatal(err)
		}
		base, ok := loaded.baseScorer.(BulkScorer32)
		if !ok {
			t.Fatalf("%s: the loaded base %T has no float32 bulk body", name, loaded.baseScorer)
		}
		want, got := make([]float32, len(catalog)), make([]float32, len(catalog))
		wide := make([]float64, len(catalog))
		offOracle := 0
		for _, u := range sampleUsers(train.NumUsers(), 10) {
			m.ScoreUser32(u, catalog, want)
			base.ScoreUser32(u, catalog, got)
			recommender.BulkScores(base, u, catalog, wide)
			for k, i := range catalog {
				if got[k] != want[k] || wide[k] != float64(want[k]) {
					t.Fatalf("%s (u=%d, i=%d): loaded bulk scores %v / %v, the trained model's kernel score is %v", name, u, i, got[k], wide[k], want[k])
				}
				if wide[k] != base.Score(u, i) {
					offOracle++
				}
			}
		}
		if offOracle == 0 {
			t.Errorf("%s: every bulk score of the loaded base equals pointwise Score: it is not serving the float32 kernel", name)
		}
	}
}

// TestPrecisionSnapshotRoundTrip: a model snapshot restores the same bulk
// scores (the blocks are rebuilt from the float64 rows it carries), a full
// engine snapshot restores a pipeline that serves identical lists, and the
// precision field older builds wrote is read tolerantly — "f64" and "f32" load
// at the one tier, the retired "int8" is refused by name.
func TestPrecisionSnapshotRoundTrip(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 10)

	m, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadRSVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := make([]float32, len(catalog)), make([]float32, len(catalog))
	for _, u := range users {
		m.ScoreUser32(u, catalog, a)
		m2.ScoreUser32(u, catalog, b)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("reloaded RSVD bulk score of (u=%d, i=%d) = %v differs from original %v", u, k, b[k], a[k])
			}
		}
	}

	ctx := context.Background()
	pl, err := NewPipeline(train,
		WithBase(m),
		WithCoverage(CoverageStat()),
		WithTopN(equivTopN),
		WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snapshot")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"", "f64", "f32"} {
		respellSnapshotPrecision(t, path, spelling)
		loaded, err := LoadEngine(path)
		if err != nil {
			t.Fatalf("precision %q: %v", spelling, err)
		}
		for _, u := range users {
			want, err := pl.RecommendUser(ctx, u, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.RecommendUser(ctx, u, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("precision %q, user %d: reloaded engine serves %v, the saved one %v", spelling, u, got, want)
			}
		}
	}
	respellSnapshotPrecision(t, path, "int8")
	if _, err := LoadEngine(path); !errors.Is(err, ErrPrecisionRetired) {
		t.Fatalf("LoadEngine of an int8 snapshot = %v, want ErrPrecisionRetired", err)
	}
}
