package ganc

// Sweep benchmarks: the candidate-pipeline refactor's acceptance gate. Each
// benchmark runs the same GANC(Pop, θ^G, Dyn) assembly on the medium synth
// preset (ML-1M) through both the score-once candidate pipeline (DESIGN.md §7)
// and the preserved pre-refactor per-pick rescan path
// (core.GANC.ReferenceRecommendAll), so `go test -bench
// 'RecommendAll|RecommendUser' -benchmem` prints the speedup and allocation
// ratio directly (add -cpuprofile/-memprofile to profile the loops).
// BenchmarkRecommendAll/rsvd-* run the assembly benchmark/'s sweep_batch
// measures instead, so a profile of them shows the path that workload times.

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
	data, err := GeneratePreset("ML-1M", sweepBenchScale)
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

// rsvdBenchPipelines returns a constructor of the pipeline benchmark/'s
// sweep_batch runs — GANC(RSVD, θ^T, Dyn), two workers, sampled OSLG, trained
// on the 80 % side of a per-user split of the "loadgen" universe — at users
// users with ten ratings each. At 2000, a tenth of that workload's, two thirds
// of its catalog are rated (2566 items of 3988): the same turn, a little
// shorter. Each call assembles a fresh pipeline (empty range table, zero Dyn
// state) around the one model.
func rsvdBenchPipelines(tb testing.TB, users int) func() *Pipeline {
	tb.Helper()
	u, err := NewUniverse(UniverseConfig{Name: "loadgen", Users: users, Items: 4000, Ratings: 10 * users, ZipfExponent: 1.1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	train := SplitByUser(u.Train(), 0.8, rand.New(rand.NewSource(1))).Train
	scorer, err := NewBaseScorer("RSVD", train, 1)
	if err != nil {
		tb.Fatal(err)
	}
	prefs, err := longtail.Estimate(PreferenceTFIDF, train, nil, 0.5, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return func() *Pipeline {
		p, err := NewPipeline(train,
			WithBase(scorer),
			WithPreferenceVector(prefs),
			WithCoverage(CoverageDyn()),
			WithTopN(10),
			WithSampleSize(50),
			WithWorkers(2),
			WithSeed(1))
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
}

// BenchmarkRecommendAll compares the full batch sweep: the candidate pipeline
// vs the pre-refactor per-pick rescan reference; and times the benchmark's
// RSVD pipeline on a fresh pipeline per pass, as sweep_batch runs it (every
// turn a first touch of the normaliser), and on one kept warm (every turn
// with its range cached).
func BenchmarkRecommendAll(b *testing.B) {
	b.Run("rsvd-fresh", func(b *testing.B) {
		newPipeline := rsvdBenchPipelines(b, 2000)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := newPipeline()
			b.StartTimer()
			if _, err := p.RecommendAll(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rsvd-warm", func(b *testing.B) {
		p := rsvdBenchPipelines(b, 2000)()
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
// sweep) through both paths, after a batch pass has warmed the Dyn state; and
// times the turn sweep_batch's read_p50_ms times — the benchmark's RSVD
// pipeline, every user's range cached by the pass.
func BenchmarkRecommendUser(b *testing.B) {
	ctx := context.Background()
	b.Run("rsvd-warm", func(b *testing.B) {
		p := rsvdBenchPipelines(b, 2000)()
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
