package ganc

// Ablation benches for the design choices called out in DESIGN.md §6, and
// micro-benches for the core primitives, on a synthetic calibrated dataset at
// a small scale. The paper's tables and figures are regenerated by
// `go run ./cmd/experiments`, not here.

import (
	"math/rand"
	"testing"

	"ganc/internal/core"
	"ganc/internal/longtail"
)

// benchScale is the dataset scale the benches run at.
const benchScale = 0.12

// --- Ablation benches ------------------------------------------------------------

// ablationFixture builds the split and preferences the ablations share.
func ablationFixture(b *testing.B) (*Split, *Preferences) {
	b.Helper()
	data, err := GenerateML100K(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(2)))
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, split.Train, nil, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	return split, prefs
}

// ablationPipeline assembles GANC(Pop, prefs, Dyn) through the public
// Pipeline API with the given OSLG sample size.
func ablationPipeline(b *testing.B, split *Split, prefs *Preferences, sample int, seed int64) *Pipeline {
	b.Helper()
	p, err := NewPipeline(split.Train,
		WithBaseNamed("Pop"),
		WithPreferenceVector(prefs),
		WithCoverage(CoverageDyn()),
		WithTopN(5),
		WithSampleSize(sample),
		WithSeed(seed))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkAblation_SamplingVsFull compares OSLG with sampling against the
// fully sequential locally greedy optimizer (objective value and wall time).
func BenchmarkAblation_SamplingVsFull(b *testing.B) {
	split, prefs := ablationFixture(b)
	run := func(sample int) (float64, Recommendations) {
		p := ablationPipeline(b, split, prefs, sample, 2)
		recs := p.GANC().Recommend()
		return p.GANC().ValueOf(recs), recs
	}
	b.Run("full-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := run(0)
			b.ReportMetric(v, "objective")
		}
	})
	b.Run("oslg-sampled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := run(split.Train.NumUsers() / 5)
			b.ReportMetric(v, "objective")
		}
	})
}

// BenchmarkAblation_UserOrder compares processing users in increasing θ
// (OSLG's ordering) against arbitrary order, measuring catalog coverage.
func BenchmarkAblation_UserOrder(b *testing.B) {
	split, prefs := ablationFixture(b)
	coverageWith := func(pv *Preferences) float64 {
		p := ablationPipeline(b, split, pv, 0, 2)
		recs := p.GANC().Recommend()
		return float64(len(recs.DistinctItems())) / float64(split.Train.NumItems())
	}
	b.Run("increasing-theta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.ReportMetric(coverageWith(prefs), "coverage")
		}
	})
	b.Run("shuffled-theta", func(b *testing.B) {
		// Shuffling the preference values decouples the processing order from
		// the users' actual appetites, which is the ablation's control arm.
		shuffled := &longtail.Preferences{Model: prefs.Model, Values: append([]float64(nil), prefValues(prefs)...)}
		rng := rand.New(rand.NewSource(9))
		rng.Shuffle(len(shuffled.Values), func(i, j int) {
			shuffled.Values[i], shuffled.Values[j] = shuffled.Values[j], shuffled.Values[i]
		})
		for i := 0; i < b.N; i++ {
			b.ReportMetric(coverageWith(shuffled), "coverage")
		}
	})
}

func prefValues(p *Preferences) []float64 { return p.Values }

// BenchmarkAblation_CoverageRecommender compares the Dyn, Stat and Rand
// coverage recommenders inside GANC on the same dataset.
func BenchmarkAblation_CoverageRecommender(b *testing.B) {
	split, prefs := ablationFixture(b)
	ev := NewEvaluator(split, 0)
	for _, tc := range []struct {
		name string
		spec CoverageSpec
	}{
		{"Dyn", CoverageDyn()},
		{"Stat", CoverageStat()},
		{"Rand", CoverageRand()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := NewPipeline(split.Train,
					WithBaseNamed("Pop"),
					WithPreferenceVector(prefs),
					WithCoverage(tc.spec),
					WithTopN(5),
					WithSampleSize(40),
					WithSeed(3))
				if err != nil {
					b.Fatal(err)
				}
				rep := ev.Evaluate(p.Name(), p.GANC().Recommend(), 5)
				b.ReportMetric(rep.Coverage, "coverage")
				b.ReportMetric(rep.FMeasure, "fmeasure")
			}
		})
	}
}

// BenchmarkAblation_PreferenceModel compares θ^G against the simpler θ models
// inside GANC(Pop, θ, Dyn).
func BenchmarkAblation_PreferenceModel(b *testing.B) {
	split, _ := ablationFixture(b)
	ev := NewEvaluator(split, 0)
	for _, model := range []PreferenceModel{PreferenceConstant, PreferenceNormalizedLongTail, PreferenceTFIDF, PreferenceGeneralized} {
		b.Run(string(model), func(b *testing.B) {
			prefs, err := longtail.Estimate(model, split.Train, nil, 0.5, 4)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				p, err := NewPipeline(split.Train,
					WithBaseNamed("Pop"),
					WithPreferenceVector(prefs),
					WithCoverage(CoverageDyn()),
					WithTopN(5),
					WithSampleSize(40),
					WithSeed(4))
				if err != nil {
					b.Fatal(err)
				}
				rep := ev.Evaluate(p.Name(), p.GANC().Recommend(), 5)
				b.ReportMetric(rep.FMeasure, "fmeasure")
				b.ReportMetric(rep.Coverage, "coverage")
			}
		})
	}
}

// --- Micro-benches for the core primitives ----------------------------------------

// BenchmarkCore_OSLGRecommend measures a single GANC(Pop, θ^G, Dyn) pass.
func BenchmarkCore_OSLGRecommend(b *testing.B) {
	split, prefs := ablationFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ablationPipeline(b, split, prefs, 40, 5)
		_ = p.GANC().Recommend()
	}
}

// BenchmarkCore_GeneralizedPreferenceLearning measures the θ^G minimax solver.
func BenchmarkCore_GeneralizedPreferenceLearning(b *testing.B) {
	data, err := GenerateML100K(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(6)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := longtail.Estimate(longtail.ModelGeneralized, split.Train, nil, 0, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCore_RSVDTraining measures SGD matrix-factorization training.
func BenchmarkCore_RSVDTraining(b *testing.B) {
	data, err := GenerateML100K(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(7)))
	cfg := DefaultRSVDConfig()
	cfg.Factors = 20
	cfg.Epochs = 5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainRSVD(split.Train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCore_PSVDTraining measures the randomized truncated SVD.
func BenchmarkCore_PSVDTraining(b *testing.B) {
	data, err := GenerateML100K(benchScale)
	if err != nil {
		b.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainPSVD(split.Train, PSVDConfig{Factors: 20, PowerIterations: 2, Seed: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ensure the core package's DynCoverage satisfies the facade interface (a
// compile-time check that the public API stays assembled).
var _ CoverageRecommender = (*core.DynCoverage)(nil)
