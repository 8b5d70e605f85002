package ganc

import (
	"fmt"
	"sort"

	"ganc/internal/core"
	"ganc/internal/knn"
	"ganc/internal/mf"
	"ganc/internal/rank"
	"ganc/internal/recommender"
	"ganc/internal/rerank"
)

// The model registry maps stable string names to constructors for base
// (accuracy) models and re-ranking baselines, so CLIs and experiment drivers
// can assemble any base/reranker combination from flags without a hand-rolled
// switch per binary. The two tables are filled once, by this file's init, and
// only read afterwards; the names cover every model the paper evaluates.

// baseBuilder constructs one named base model.
type baseBuilder struct {
	// scorer builds the raw base model (for baseline serving/evaluation).
	scorer func(train *Dataset, seed int64) (Scorer, error)
	// accuracy builds the GANC accuracy component. When nil, the component is
	// derived from scorer via per-user min–max normalization.
	accuracy func(train *Dataset, topN int, seed int64) (AccuracyRecommender, error)
}

// rerankerBuilder constructs a named re-ranker on top of a base scorer and
// returns it as an Engine.
type rerankerBuilder func(train *Dataset, base Scorer, n int, seed int64) (Engine, error)

var (
	baseModels = map[string]baseBuilder{}
	rerankers  = map[string]rerankerBuilder{}
)

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
	return b.scorer(train, seed)
}

// newNormalizedAccuracy is the one place a raw scorer becomes a GANC
// accuracy component without a custom adaptation: per-user min–max
// normalization over the catalog, clamped to [0,1]. Cold assembly, snapshot
// loading and ingestion rebuilds all share it, so the three paths cannot
// diverge from each other (the byte-identical round-trip invariant depends
// on that).
func newNormalizedAccuracy(s Scorer, numItems int) AccuracyRecommender {
	return &core.ScorerAccuracy{Scorer: recommender.NewNormalizedScorer(s, numItems)}
}

// accuracyForScorer adapts an already-trained scorer into a GANC accuracy
// component. A registry base with the same name and a custom Accuracy
// builder (e.g. Pop's indicator adaptation) takes precedence, so
// WithBase(popScorer) and WithBaseNamed("Pop") assemble the same model;
// everything else gets per-user min–max normalization.
func accuracyForScorer(s Scorer, train *Dataset, topN int, seed int64) (AccuracyRecommender, error) {
	b, ok := baseModels[s.Name()]
	if ok && b.accuracy != nil {
		return b.accuracy(train, topN, seed)
	}
	return newNormalizedAccuracy(s, train.NumItems()), nil
}

// newAccuracyByName resolves a registry base into a GANC accuracy component,
// also returning the raw base scorer (when one was built) so the pipeline can
// retain it for persistence and ingestion rebuilds. Entries with a custom
// accuracy builder short-circuit before the scorer constructor runs — the
// scorer may be expensive to train and the accuracy component replaces it
// entirely (persistence handles the built-in such case, Pop, from the
// accuracy component itself).
func newAccuracyByName(name string, train *Dataset, topN int, seed int64) (AccuracyRecommender, Scorer, error) {
	b, ok := baseModels[name]
	if !ok {
		return nil, nil, fmt.Errorf("ganc: unknown base model %q (known: %v)", name, BaseNames())
	}
	if b.accuracy != nil {
		arec, err := b.accuracy(train, topN, seed)
		return arec, nil, err
	}
	s, err := b.scorer(train, seed)
	if err != nil {
		return nil, nil, err
	}
	return newNormalizedAccuracy(s, train.NumItems()), s, nil
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
	baseModels["Pop"] = baseBuilder{
		scorer: func(train *Dataset, _ int64) (Scorer, error) { return recommender.NewPop(train), nil },
		// The paper's Pop accuracy recommender is the indicator a(i)=1 iff i
		// is in the user's popularity top-N, not a normalized count.
		accuracy: func(train *Dataset, topN int, _ int64) (AccuracyRecommender, error) {
			return core.NewPopAccuracy(train, topN), nil
		},
	}
	baseModels["Rand"] = baseBuilder{
		scorer: func(_ *Dataset, seed int64) (Scorer, error) { return recommender.NewRand(seed), nil },
	}
	baseModels["ItemAvg"] = baseBuilder{
		scorer: func(train *Dataset, _ int64) (Scorer, error) { return recommender.NewItemAvg(train, 5), nil },
	}
	baseModels["RSVD"] = baseBuilder{
		scorer: func(train *Dataset, seed int64) (Scorer, error) {
			cfg := mf.DefaultRSVDConfig()
			cfg.Factors = 40
			cfg.Epochs = 15
			cfg.Seed = seed
			return mf.TrainRSVD(train, cfg)
		},
	}
	for _, factors := range []int{10, 100} {
		factors := factors
		baseModels[fmt.Sprintf("PSVD%d", factors)] = baseBuilder{
			scorer: func(train *Dataset, seed int64) (Scorer, error) {
				return mf.TrainPSVD(train, mf.PSVDConfig{Factors: factors, PowerIterations: 2, Seed: seed})
			},
		}
	}
	baseModels["ItemKNN"] = baseBuilder{
		scorer: func(train *Dataset, _ int64) (Scorer, error) {
			return knn.Train(train, knn.DefaultConfig())
		},
	}
	baseModels["CofiRank"] = baseBuilder{
		scorer: func(train *Dataset, seed int64) (Scorer, error) {
			return rank.Train(train, rank.Config{
				Factors: 16, Regularization: 0.05, LearningRate: 0.02,
				Epochs: 5, InitStd: 0.1, Seed: seed, PairsPerUser: 10,
			})
		},
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
