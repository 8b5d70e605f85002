package ganc

// Sweep benchmarks: the candidate-pipeline refactor's acceptance gate. Each
// benchmark runs the same GANC(Pop, θ^G, Dyn) assembly on the medium synth
// preset (ML-1M) through both the score-once candidate pipeline (DESIGN.md §7)
// and the preserved pre-refactor per-pick rescan path
// (core.GANC.ReferenceRecommendAll), so `go test -bench
// 'RecommendAll|RecommendUser' -benchmem` prints the speedup and allocation
// ratio directly (add -cpuprofile/-memprofile to profile the loops).

import (
	"context"
	"math/rand"
	"testing"

	"ganc/internal/longtail"
)

// sweepBenchScale sizes the medium preset; ML1M at 0.5 gives ~750 users and
// ~460 items, big enough that per-pick rescans dominate and small enough for
// a CI smoke run.
const sweepBenchScale = 0.5

// sweepBenchPipeline assembles GANC(Pop, θ^G, Dyn) on the ML-1M stand-in.
func sweepBenchPipeline(tb testing.TB) *Pipeline {
	tb.Helper()
	data, err := GenerateML1M(sweepBenchScale)
	if err != nil {
		tb.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(77)))
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, split.Train, nil, 0, 77)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPipeline(split.Train,
		WithBaseNamed("Pop"),
		WithPreferenceVector(prefs),
		WithCoverage(CoverageDyn()),
		WithTopN(10),
		WithSampleSize(split.Train.NumUsers()/10),
		WithSeed(77))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkRecommendAll compares the full batch sweep: the candidate pipeline
// vs the pre-refactor per-pick rescan reference.
func BenchmarkRecommendAll(b *testing.B) {
	b.Run("pipeline", func(b *testing.B) {
		p := sweepBenchPipeline(b)
		// Warm the Pop accuracy membership cache so both sub-benchmarks
		// measure the steady-state sweep, not one-time cache fills.
		if _, err := p.RecommendAll(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RecommendAll(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		p := sweepBenchPipeline(b)
		_ = p.GANC().ReferenceRecommendAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = p.GANC().ReferenceRecommendAll()
		}
	})
}

// BenchmarkRecommendUser compares one online request (frozen Dyn snapshot
// sweep) through both paths, after a batch pass has warmed the Dyn state.
func BenchmarkRecommendUser(b *testing.B) {
	ctx := context.Background()
	b.Run("pipeline", func(b *testing.B) {
		p := sweepBenchPipeline(b)
		if _, err := p.RecommendAll(ctx); err != nil {
			b.Fatal(err)
		}
		users := p.Train().NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.RecommendUser(ctx, UserID(i%users), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		p := sweepBenchPipeline(b)
		if _, err := p.RecommendAll(ctx); err != nil {
			b.Fatal(err)
		}
		users := p.Train().NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.GANC().ReferenceRecommendUser(ctx, UserID(i%users), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
