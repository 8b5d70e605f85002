package ganc

import (
	"fmt"
	"sort"

	"ganc/internal/core"
	"ganc/internal/ingest"
	"ganc/internal/knn"
	"ganc/internal/mf"
	"ganc/internal/persist"
	"ganc/internal/rank"
	"ganc/internal/recommender"
	"ganc/internal/rerank"
)

// The model registry maps stable string names to constructors for base
// (accuracy) models and re-ranking baselines, so CLIs and experiment drivers
// can assemble any base/reranker combination from flags without a hand-rolled
// switch per binary. The two maps are filled once, by this file's init, and
// only read afterwards; the names cover every model the paper evaluates.
// Everything else the facade knows about a base model is its row of baseKinds.

// baseTrainer trains or builds one named base model.
type baseTrainer func(train *Dataset, seed int64) (Scorer, error)

// rerankerBuilder constructs a named re-ranker on top of a base scorer and
// returns it as an Engine.
type rerankerBuilder func(train *Dataset, base Scorer, n int, seed int64) (Engine, error)

var (
	baseModels = map[string]baseTrainer{}
	rerankers  = map[string]rerankerBuilder{}
)

// itemAvgShrinkage is the registry's ItemAvg shrinkage pseudo-count, and the
// one an ingestion state carries when its base is not an ItemAvg.
const itemAvgShrinkage = 5

// BaseNames lists the registered base-model names, sorted.
func BaseNames() []string {
	names := make([]string, 0, len(baseModels))
	for name := range baseModels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RerankerNames lists the registered reranker names, sorted.
func RerankerNames() []string {
	names := make([]string, 0, len(rerankers))
	for name := range rerankers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBaseScorer trains/builds the named base model on the train set.
func NewBaseScorer(name string, train *Dataset, seed int64) (Scorer, error) {
	b, ok := baseModels[name]
	if !ok {
		return nil, fmt.Errorf("ganc: unknown base model %q (known: %v)", name, BaseNames())
	}
	return b(train, seed)
}

// baseKind is one row of the table of persistable base models: everything the
// facade knows about a base beyond how to train it. Saving, loading, ingesting
// into and assembling a pipeline around a model all read its row and nothing
// else, so the columns are what adding a persistable base costs.
type baseKind struct {
	// name is the snapshot spelling (the meta section's BaseKind).
	name string
	// owns reports whether s is this kind's model. A kind is matched by the
	// scorer's Go type, never by its Name().
	owns func(s Scorer) bool
	// encode writes the model as the snapshot's "base" section; decode
	// restores it bit-identically (train is the snapshot's dataset).
	encode func(s Scorer, b *persist.Builder) error
	decode func(snap *persist.Snapshot, train *Dataset) (Scorer, error)
	// rebuild is what an ingested batch does to the model: the next
	// generation's scorer, from the previous one and the ingestion state. nil
	// for the trained factor models, which stay frozen between retrains —
	// and whose cached lists can therefore be revalidated across a swap.
	rebuild func(prev Scorer, s *ingest.State) Scorer
	// accuracy is how the model enters the value function; nil means per-user
	// min–max normalisation, like any scorer outside the table.
	accuracy func(s Scorer, train *Dataset, topN int) AccuracyRecommender
	// shrinkage is the λ a fresh ingestion state must carry for rebuild to
	// reproduce the model; nil means the state's default.
	shrinkage func(s Scorer) float64
}

var baseKinds = []baseKind{
	{
		name: "Pop",
		owns: func(s Scorer) bool { _, ok := s.(*recommender.Pop); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			return b.AddGob(sectionBase, &popSnapshot{Counts: s.(*recommender.Pop).Counts()})
		},
		decode: func(snap *persist.Snapshot, train *Dataset) (Scorer, error) {
			var ps popSnapshot
			if err := snap.Gob(sectionBase, &ps); err != nil {
				return nil, err
			}
			if len(ps.Counts) != train.NumItems() {
				return nil, fmt.Errorf("ganc: snapshot Pop counts cover %d items but the dataset has %d",
					len(ps.Counts), train.NumItems())
			}
			return recommender.NewPopFromCounts(ps.Counts), nil
		},
		rebuild: func(_ Scorer, s *ingest.State) Scorer { return recommender.NewPopFromCounts(s.PopCounts) },
		// The paper's Pop accuracy recommender is the indicator a(i)=1 iff i
		// is in the user's popularity top-N, not a normalized count.
		accuracy: func(s Scorer, train *Dataset, topN int) AccuracyRecommender {
			return core.NewPopAccuracyWith(s.(*recommender.Pop), train, topN)
		},
	},
	{
		name: "ItemAvg",
		owns: func(s Scorer) bool { _, ok := s.(*recommender.ItemAvg); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			avg := s.(*recommender.ItemAvg)
			return b.AddGob(sectionBase, &itemAvgSnapshot{Avg: avg.Averages(), Lambda: avg.Lambda()})
		},
		decode: func(snap *persist.Snapshot, _ *Dataset) (Scorer, error) {
			var ia itemAvgSnapshot
			if err := snap.Gob(sectionBase, &ia); err != nil {
				return nil, err
			}
			return recommender.NewItemAvgFromAverages(ia.Avg, ia.Lambda), nil
		},
		rebuild: func(_ Scorer, s *ingest.State) Scorer {
			return recommender.NewItemAvgFromStats(s.AvgSums, s.AvgCounts, s.AvgLambda, s.GlobalMean())
		},
		shrinkage: func(s Scorer) float64 { return s.(*recommender.ItemAvg).Lambda() },
	},
	{
		name: "RSVD",
		owns: func(s Scorer) bool { _, ok := s.(*mf.RSVD); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			return b.AddFrom(sectionBase, s.(*mf.RSVD).Save)
		},
		decode: func(snap *persist.Snapshot, _ *Dataset) (Scorer, error) {
			r, err := snap.Reader(sectionBase)
			if err != nil {
				return nil, err
			}
			return mf.LoadRSVD(r)
		},
	},
	{
		name: "PSVD",
		owns: func(s Scorer) bool { _, ok := s.(*mf.PSVD); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			return b.AddFrom(sectionBase, s.(*mf.PSVD).Save)
		},
		decode: func(snap *persist.Snapshot, _ *Dataset) (Scorer, error) {
			r, err := snap.Reader(sectionBase)
			if err != nil {
				return nil, err
			}
			return mf.LoadPSVD(r)
		},
	},
	{
		name: "ItemKNN",
		owns: func(s Scorer) bool { _, ok := s.(*knn.ItemKNN); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			return b.AddFrom(sectionBase, s.(*knn.ItemKNN).Save)
		},
		decode: func(snap *persist.Snapshot, train *Dataset) (Scorer, error) {
			r, err := snap.Reader(sectionBase)
			if err != nil {
				return nil, err
			}
			return knn.Load(r, train)
		},
		// The similarity lists stay frozen; scoring consults the extended
		// user profiles.
		rebuild: func(prev Scorer, s *ingest.State) Scorer { return prev.(*knn.ItemKNN).Rebind(s.Train) },
	},
	{
		name: "CofiRank",
		owns: func(s Scorer) bool { _, ok := s.(*rank.Model); return ok },
		encode: func(s Scorer, b *persist.Builder) error {
			return b.AddFrom(sectionBase, s.(*rank.Model).Save)
		},
		decode: func(snap *persist.Snapshot, _ *Dataset) (Scorer, error) {
			r, err := snap.Reader(sectionBase)
			if err != nil {
				return nil, err
			}
			return rank.Load(r)
		},
	},
}

// kindOf returns the table row that owns s, or nil when none does (a custom
// scorer, the Rand base, no scorer at all).
func kindOf(s Scorer) *baseKind {
	for k := range baseKinds {
		if baseKinds[k].owns(s) {
			return &baseKinds[k]
		}
	}
	return nil
}

// kindNamed returns the table row with the given snapshot spelling, or nil.
func kindNamed(name string) *baseKind {
	for k := range baseKinds {
		if baseKinds[k].name == name {
			return &baseKinds[k]
		}
	}
	return nil
}

// accuracyFor is the one place a scorer becomes a GANC accuracy component:
// its row's adaptation when kind (kindOf(s), resolved by the caller) has one,
// otherwise per-user min–max normalization over the catalog, clamped to
// [0,1]. Cold assembly, snapshot loading and ingestion rebuilds all share it,
// so the three paths cannot diverge from each other (the byte-identical
// round-trip invariant depends on that).
func accuracyFor(kind *baseKind, s Scorer, train *Dataset, topN int) AccuracyRecommender {
	if kind != nil && kind.accuracy != nil {
		return kind.accuracy(s, train, topN)
	}
	return &core.ScorerAccuracy{Scorer: recommender.NewNormalizedScorer(s, train.NumItems())}
}

// NewReranker assembles the named re-ranker over base and returns its Engine.
// The "GANC" entry assembles a default pipeline (θ^G, Dyn) around the base.
func NewReranker(name string, train *Dataset, base Scorer, n int, seed int64) (Engine, error) {
	b, ok := rerankers[name]
	if !ok {
		return nil, fmt.Errorf("ganc: unknown reranker %q (known: %v)", name, RerankerNames())
	}
	return b(train, base, n, seed)
}

func init() {
	// Base models (Table II/IV of the paper).
	baseModels["Pop"] = func(train *Dataset, _ int64) (Scorer, error) { return recommender.NewPop(train), nil }
	baseModels["Rand"] = func(_ *Dataset, seed int64) (Scorer, error) { return recommender.NewRand(seed), nil }
	baseModels["ItemAvg"] = func(train *Dataset, _ int64) (Scorer, error) {
		return recommender.NewItemAvg(train, itemAvgShrinkage), nil
	}
	baseModels["RSVD"] = func(train *Dataset, seed int64) (Scorer, error) {
		cfg := mf.DefaultRSVDConfig()
		cfg.Factors = 40
		cfg.Epochs = 15
		cfg.Seed = seed
		return mf.TrainRSVD(train, cfg)
	}
	for _, factors := range []int{10, 100} {
		factors := factors
		baseModels[fmt.Sprintf("PSVD%d", factors)] = func(train *Dataset, seed int64) (Scorer, error) {
			return mf.TrainPSVD(train, mf.PSVDConfig{Factors: factors, PowerIterations: 2, Seed: seed})
		}
	}
	baseModels["ItemKNN"] = func(train *Dataset, _ int64) (Scorer, error) {
		return knn.Train(train, knn.DefaultConfig())
	}
	baseModels["CofiRank"] = func(train *Dataset, seed int64) (Scorer, error) {
		return rank.Train(train, rank.Config{
			Factors: 16, Regularization: 0.05, LearningRate: 0.02,
			Epochs: 5, InitStd: 0.1, Seed: seed, PairsPerUser: 10,
		})
	}

	// Re-ranking baselines (Section V of the paper) plus GANC itself, so one
	// flag value selects the full framework. A baseline is a recommender.TopN
	// over the user's candidates, served by the TopNEngine every base model
	// uses.
	baseline := func(build func(train *Dataset, base Scorer, n int) (recommender.TopN, error)) rerankerBuilder {
		return func(train *Dataset, base Scorer, n int, _ int64) (Engine, error) {
			model, err := build(train, base, n)
			if err != nil {
				return nil, err
			}
			return &recommender.TopNEngine{Model: model, Train: train, N: n}, nil
		}
	}
	rerankers["RBT-Pop"] = baseline(func(train *Dataset, base Scorer, n int) (recommender.TopN, error) {
		return rerank.NewRBT(train, base, rerank.DefaultRBTConfig(n, rerank.RBTPop))
	})
	rerankers["RBT-Avg"] = baseline(func(train *Dataset, base Scorer, n int) (recommender.TopN, error) {
		return rerank.NewRBT(train, base, rerank.DefaultRBTConfig(n, rerank.RBTAvg))
	})
	rerankers["5D"] = baseline(func(train *Dataset, base Scorer, n int) (recommender.TopN, error) {
		return rerank.NewFiveD(train, base, rerank.DefaultFiveDConfig(n))
	})
	rerankers["5D-AF"] = baseline(func(train *Dataset, base Scorer, n int) (recommender.TopN, error) {
		return rerank.NewFiveD(train, base, rerank.FiveDConfig{N: n, Q: 1, AccuracyFilter: true, RankByRankings: true})
	})
	for _, x := range []int{10, 20} {
		x := x
		rerankers[fmt.Sprintf("PRA-%d", x)] = baseline(func(train *Dataset, base Scorer, n int) (recommender.TopN, error) {
			return rerank.NewPRA(train, base, rerank.DefaultPRAConfig(n, x))
		})
	}
	// GANC with the paper defaults (θ^G, Dyn, fully sequential OSLG); callers
	// needing sampling or other knobs assemble NewPipeline directly.
	rerankers["GANC"] = func(train *Dataset, base Scorer, n int, seed int64) (Engine, error) {
		return NewPipeline(train, WithBase(base), WithTopN(n), WithSeed(seed))
	}
}
