package ganc

import (
	"context"

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
		Model: &recommender.ScorerTopN{Scorer: s},
		Train: train,
		N:     n,
	}
}

// BulkScorer re-exports the batch scoring contract of the candidate pipeline
// (see internal/recommender.BulkScorer) so downstream models can opt in.
type BulkScorer = recommender.BulkScorer
