package ganc

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"ganc/internal/persist"
	"ganc/internal/recommender"
)

// Reduced-precision equivalence policy (DESIGN.md §12). Pointwise Score at
// float64 is the reference; the f32 bulk tier is not bit-identical to it, it
// is held to the documented tolerances below instead:
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

// tieredScorer is the shape shared by the factor models with a
// reduced-precision bulk path (RSVD, PSVD, CofiModel).
type tieredScorer interface {
	Scorer
	SetPrecision(ScoringPrecision)
	ScoringPrecision() ScoringPrecision
	ScoreUser(UserID, []ItemID, []float64)
	ScoreUser32(UserID, []ItemID, []float32)
}

func smallRSVDConfig() RSVDConfig {
	cfg := DefaultRSVDConfig()
	cfg.Factors = 16
	cfg.Epochs = 6
	cfg.Seed = 3
	return cfg
}

// trainTieredScorers fits one small instance of every tiered model on train.
func trainTieredScorers(t *testing.T, train *Dataset) map[string]tieredScorer {
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
	return map[string]tieredScorer{"RSVD": rsvd, "PSVD": psvd, "CofiRank": cofi}
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

// TestReducedPrecisionBulkScoreTolerance pins the numeric half of the policy:
// bulk float64 scores are bit-identical to Score at the default tier, and the
// f32 tier stays within its documented relative tolerance.
func TestReducedPrecisionBulkScoreTolerance(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 20)

	for name, m := range trainTieredScorers(t, train) {
		ref := make(map[UserID][]float64, len(users))
		for _, u := range users {
			buf := make([]float64, len(catalog))
			m.ScoreUser(u, catalog, buf)
			for k, i := range catalog {
				if buf[k] != m.Score(u, i) {
					t.Fatalf("%s: f64 bulk score of (u=%d, i=%d) = %v differs from Score = %v",
						name, u, i, buf[k], m.Score(u, i))
				}
			}
			ref[u] = buf
		}
		tiers := []struct {
			p   ScoringPrecision
			tol float64
		}{
			{PrecisionF32, f32ScoreTol},
		}
		for _, tier := range tiers {
			m.SetPrecision(tier.p)
			got32 := make([]float32, len(catalog))
			got64 := make([]float64, len(catalog))
			worstRel := 0.0
			for _, u := range users {
				exact := ref[u]
				lo, hi := exact[0], exact[0]
				for _, s := range exact {
					lo, hi = math.Min(lo, s), math.Max(hi, s)
				}
				span := hi - lo
				if span == 0 {
					span = 1
				}
				m.ScoreUser32(u, catalog, got32)
				m.ScoreUser(u, catalog, got64)
				for k := range catalog {
					if rel := math.Abs(float64(got32[k])-exact[k]) / span; rel > worstRel {
						worstRel = rel
					}
					// The float64 bulk path serves the same tier (converted),
					// never a mix of tiers.
					if got64[k] != float64(got32[k]) {
						t.Fatalf("%s at %v: f64 bulk path diverged from the 32-bit path at item %d", name, tier.p, k)
					}
				}
			}
			t.Logf("%s at %v: worst per-score error %.2e of range (tolerance %.0e)", name, tier.p, worstRel, tier.tol)
			if worstRel > tier.tol {
				t.Errorf("%s at %v: worst per-score error %.3g of range exceeds tolerance %g", name, tier.p, worstRel, tier.tol)
			}
		}
		m.SetPrecision(PrecisionF64)
	}
}

// TestReducedPrecisionTopNAgreement pins the ranking half of the policy: the
// candidate-pipeline top-10 lists of the f32 tier overlap the float64
// oracle's above the floor.
func TestReducedPrecisionTopNAgreement(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 40)

	for name, m := range trainTieredScorers(t, train) {
		topn := &recommender.ScorerTopN{Scorer: m}
		oracle := make(map[UserID]TopNSet, len(users))
		for _, u := range users {
			oracle[u] = topn.Recommend(u, equivTopN, catalog)
		}
		tiers := []struct {
			p     ScoringPrecision
			floor float64
		}{
			{PrecisionF32, f32OverlapMin},
		}
		for _, tier := range tiers {
			m.SetPrecision(tier.p)
			sum := 0.0
			for _, u := range users {
				sum += overlapFrac(oracle[u], topn.Recommend(u, equivTopN, catalog))
			}
			mean := sum / float64(len(users))
			t.Logf("%s at %v: mean top-%d overlap with f64 oracle %.3f (floor %.2f)", name, tier.p, equivTopN, mean, tier.floor)
			if mean < tier.floor {
				t.Errorf("%s at %v: mean top-%d overlap %.3f below floor %.2f", name, tier.p, equivTopN, mean, tier.floor)
			}
		}
		m.SetPrecision(PrecisionF64)
	}
}

// TestPipelineScoringPrecisionTiers runs the same agreement check end to end
// through the facade: a pipeline assembled with WithScoringPrecision(f32)
// serves lists that overlap the float64 pipeline's. Stat coverage keeps the
// sweep stateless, so every list is deterministic.
func TestPipelineScoringPrecisionTiers(t *testing.T) {
	split := pipelineFixture(t)
	ctx := context.Background()
	users := sampleUsers(split.Train.NumUsers(), 30)

	build := func(p ScoringPrecision) *Pipeline {
		t.Helper()
		m, err := TrainRSVD(split.Train, smallRSVDConfig())
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPipeline(split.Train,
			WithBase(m),
			WithCoverage(CoverageStat()),
			WithTopN(equivTopN),
			WithSeed(7),
			WithScoringPrecision(p))
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}

	ref := build(PrecisionF64)
	oracle := make(map[UserID]TopNSet, len(users))
	for _, u := range users {
		set, err := ref.RecommendUser(ctx, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		oracle[u] = set
	}
	tiers := []struct {
		p     ScoringPrecision
		floor float64
	}{
		{PrecisionF32, f32OverlapMin},
	}
	for _, tier := range tiers {
		pl := build(tier.p)
		sum := 0.0
		for _, u := range users {
			set, err := pl.RecommendUser(ctx, u, 0)
			if err != nil {
				t.Fatal(err)
			}
			sum += overlapFrac(oracle[u], set)
		}
		mean := sum / float64(len(users))
		t.Logf("pipeline at %v: mean top-%d overlap with f64 pipeline %.3f (floor %.2f)", tier.p, equivTopN, mean, tier.floor)
		if mean < tier.floor {
			t.Errorf("pipeline at %v: mean top-%d overlap %.3f below floor %.2f", tier.p, equivTopN, mean, tier.floor)
		}
	}
}

// TestPrecisionSnapshotRoundTrip verifies the versioned persistence of the
// tiers: a model snapshot carries its precision and f32 factor section, and a
// full engine snapshot restores a pipeline that serves identical lists.
func TestPrecisionSnapshotRoundTrip(t *testing.T) {
	split := pipelineFixture(t)
	train := split.Train
	catalog := fullCatalog(train.NumItems())
	users := sampleUsers(train.NumUsers(), 10)

	m, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.SetPrecision(PrecisionF32)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadRSVD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.ScoringPrecision(); got != PrecisionF32 {
		t.Fatalf("reloaded RSVD serves %v, want %v", got, PrecisionF32)
	}
	a, b := make([]float32, len(catalog)), make([]float32, len(catalog))
	for _, u := range users {
		m.ScoreUser32(u, catalog, a)
		m2.ScoreUser32(u, catalog, b)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("reloaded RSVD f32 score of (u=%d, i=%d) = %v differs from original %v", u, k, b[k], a[k])
			}
		}
	}

	// Engine-level: an f32 pipeline round-trips through Save/LoadEngine (the
	// section persists the f32 blocks).
	ctx := context.Background()
	base, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(train,
		WithBase(base),
		WithCoverage(CoverageStat()),
		WithTopN(equivTopN),
		WithSeed(7),
		WithScoringPrecision(PrecisionF32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snapshot")
	if err := pl.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
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
		if len(want) != len(got) {
			t.Fatalf("user %d: reloaded engine list length %d != %d", u, len(got), len(want))
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("user %d: reloaded f32 engine diverged at rank %d: %d != %d", u, k, got[k], want[k])
			}
		}
	}
	// The retired int8 tier is refused by name, from a flag and from a
	// snapshot's meta section alike — never served at another tier.
	if _, err := ParseScoringPrecision("int8"); !errors.Is(err, ErrPrecisionRetired) {
		t.Fatalf("ParseScoringPrecision(\"int8\") = %v, want ErrPrecisionRetired", err)
	}
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
		meta.Precision = "int8"
		if err := rebuilt.AddGob(name, &meta); err != nil {
			t.Fatal(err)
		}
	}
	if err := rebuilt.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(path); !errors.Is(err, ErrPrecisionRetired) {
		t.Fatalf("LoadEngine of an int8 snapshot = %v, want ErrPrecisionRetired", err)
	}
}
