package ganc

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the complete facade workflow exactly as the
// README's quickstart describes it: generate → split → assemble the pipeline
// in one call → recommend through the Engine → evaluate.
func TestPublicAPIEndToEnd(t *testing.T) {
	data, err := GenerateML100K(0.12)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(3)))
	if split.Train.NumRatings() == 0 || split.Test.NumRatings() == 0 {
		t.Fatal("degenerate split")
	}

	const n = 5
	p, err := NewPipeline(split.Train,
		WithBaseNamed("Pop"),
		WithPreferences(PreferenceGeneralized),
		WithCoverage(CoverageDyn()),
		WithTopN(n),
		WithSampleSize(40),
		WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Preferences().Len() != split.Train.NumUsers() {
		t.Fatal("preference vector size mismatch")
	}
	ctx := context.Background()
	recs, err := p.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != split.Train.NumUsers() {
		t.Fatalf("recommendations for %d users, want %d", len(recs), split.Train.NumUsers())
	}

	ev := NewEvaluator(split, 0)
	gancRep := ev.Evaluate(p.Name(), recs, n)
	popRecs, err := NewBaseEngine(NewPop(split.Train), split.Train, n).RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	popRep := ev.Evaluate("Pop", popRecs, n)
	if gancRep.Coverage <= popRep.Coverage {
		t.Fatalf("GANC coverage %.4f should exceed Pop coverage %.4f", gancRep.Coverage, popRep.Coverage)
	}

	ranks := RankReports([]Report{gancRep, popRep})
	if len(ranks) != 2 {
		t.Fatal("RankReports incomplete")
	}
}

func TestPublicAPIModelTraining(t *testing.T) {
	data, err := GenerateML100K(0.12)
	if err != nil {
		t.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(5)))

	rsvdCfg := DefaultRSVDConfig()
	rsvdCfg.Factors = 8
	rsvdCfg.Epochs = 3
	rsvd, err := TrainRSVD(split.Train, rsvdCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rsvd.RMSE(split.Test) <= 0 {
		t.Fatal("RMSE should be positive on held-out data")
	}

	psvd, err := TrainPSVD(split.Train, PSVDConfig{Factors: 8, PowerIterations: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(psvd.Name(), "PSVD") {
		t.Fatal("PSVD name wrong")
	}

	cofiCfg := CofiConfig{Factors: 8, Regularization: 0.05, LearningRate: 0.02, Epochs: 2, InitStd: 0.1, Seed: 1, PairsPerUser: 5}
	cofi, err := TrainCofi(split.Train, cofiCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cofi.Factors() != 8 {
		t.Fatal("Cofi factors wrong")
	}

	// WithBase normalizes scorer output into [0,1]; smoke-test the pipeline
	// with Stat and Rand coverage as well.
	for _, spec := range []CoverageSpec{CoverageStat(), CoverageRand()} {
		p, err := NewPipeline(split.Train,
			WithBase(rsvd),
			WithPreferences(PreferenceTFIDF),
			WithCoverage(spec),
			WithTopN(3))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RecommendAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != split.Train.NumUsers() {
			t.Fatal("facade GANC run incomplete")
		}
	}
}

func TestPublicAPIReadRatings(t *testing.T) {
	csv := "u1,i1,5\nu1,i2,3\nu2,i1,4\n"
	d, err := ReadRatings(strings.NewReader(csv), LoadOptions{Name: "inline"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 3 || d.NumUsers() != 2 || d.NumItems() != 2 {
		t.Fatalf("parse result wrong: %d/%d/%d", d.NumRatings(), d.NumUsers(), d.NumItems())
	}
}

func TestPublicAPISyntheticGenerators(t *testing.T) {
	for _, name := range []string{"ML-100K", "ML-1M", "ML-10M", "MT-200K", "Netflix"} {
		d, err := GeneratePreset(name, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.NumRatings() == 0 {
			t.Fatalf("%s: empty dataset", name)
		}
		if d.Name() != name {
			t.Fatalf("%s: generated dataset named %q", name, d.Name())
		}
	}
	if _, err := GeneratePreset("ML-20M", 0.05); err == nil || !strings.Contains(err.Error(), "ML-100K, ML-1M, ML-10M, MT-200K, Netflix") {
		t.Fatalf("unknown preset: err %v, want one listing the known names", err)
	}
}
