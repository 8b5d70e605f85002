package ganc

import (
	"context"
	"fmt"

	"ganc/internal/recommender"
)

// Engine is the serving-oriented contract every assembled recommender in this
// library satisfies: GANC pipelines, the base models and the re-ranking
// baselines all answer both a single user's request on demand and the full
// batch sweep. The online path is what internal/serve is built on — one
// user's list can be computed without precomputing the other million.
type Engine interface {
	// Name identifies the model in logs, experiment output and /info.
	Name() string
	// TopN returns the engine's default list size.
	TopN() int
	// RecommendUser computes one user's ranked top-n list on demand. n ≤ 0
	// selects the engine's default. Implementations are safe for concurrent
	// use and never mutate shared state on this path.
	RecommendUser(ctx context.Context, u UserID, n int) (TopNSet, error)
	// RecommendAll computes the full collection (the batch path used by the
	// offline experiments and evaluation).
	RecommendAll(ctx context.Context) (Recommendations, error)
}

// NewBaseEngine wraps any Scorer as an Engine under the paper's
// all-unrated-items protocol. Requests run through the index-contiguous
// candidate pipeline: the user's candidates (catalog minus train items) are
// enumerated by a linear merge and scored in one BulkScores call, so a model
// implementing BulkScorer (RSVD, PSVD, ItemKNN, Pop, ItemAvg, CofiRank) pays
// one virtual dispatch per request instead of one per item.
func NewBaseEngine(s Scorer, train *Dataset, n int) Engine {
	return &recommender.TopNEngine{
		Model: &recommender.ScorerTopN{Scorer: s, NumItems: train.NumItems()},
		Train: train,
		N:     n,
	}
}

// BulkScorer re-exports the batch scoring contract of the candidate pipeline
// (see internal/recommender.BulkScorer) so downstream models can opt in.
type BulkScorer = recommender.BulkScorer

// StaticEngine serves a frozen precomputed collection: RecommendUser is a map
// lookup, RecommendAll returns the collection itself. It adapts legacy batch
// output (or an offline snapshot loaded from disk) to the Engine interface.
type StaticEngine struct {
	name string
	recs Recommendations
	n    int
}

// NewStaticEngine wraps a precomputed collection. It fails on an empty
// collection or a non-positive n, mirroring the old serve-time validation.
func NewStaticEngine(name string, recs Recommendations, n int) (*StaticEngine, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("ganc: refusing to build a static engine from an empty collection")
	}
	if n <= 0 {
		return nil, fmt.Errorf("ganc: static engine N must be positive, got %d", n)
	}
	return &StaticEngine{name: name, recs: recs, n: n}, nil
}

// Name implements Engine.
func (e *StaticEngine) Name() string { return e.name }

// TopN implements Engine.
func (e *StaticEngine) TopN() int { return e.n }

// RecommendUser implements Engine by looking the user up in the frozen
// collection; users without an entry get an error (there is nothing to
// compute lazily).
func (e *StaticEngine) RecommendUser(ctx context.Context, u UserID, n int) (TopNSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set, ok := e.recs[u]
	if !ok {
		return nil, fmt.Errorf("ganc: no precomputed recommendations for user %d", u)
	}
	if n > 0 && n < len(set) {
		set = set[:n]
	}
	return set, nil
}

// RecommendAll implements Engine.
func (e *StaticEngine) RecommendAll(ctx context.Context) (Recommendations, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.recs, nil
}
