package core

import (
	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// State import hooks for the persistence and streaming-ingestion layers:
// constructors that start a component from saved or incrementally maintained
// state instead of a dataset scan. The Dyn coverage frequencies are the one
// piece of GANC state worth carrying across a restart — the paper's dynamic
// objective is defined over them.

// NewDynCoverageFrom builds a Dyn coverage recommender whose frequency state
// starts from freq (copied) instead of zero. The streaming-ingestion layer
// uses it to rebuild engines around an evolving frequency vector, and the
// persistence layer to restore a saved one; the catalog size is len(freq).
func NewDynCoverageFrom(freq []int) *DynCoverage {
	out := make([]int, len(freq))
	copy(out, freq)
	return &DynCoverage{freq: out}
}

// NewStatCoverageFromCounts builds the Stat coverage recommender from an
// explicit per-item rating-count vector instead of scanning a dataset, so the
// streaming-ingestion layer can rebuild it from its incrementally maintained
// counts in O(|I|).
func NewStatCoverageFromCounts(counts []int) *StatCoverage {
	scores := make([]float64, len(counts))
	for i, c := range counts {
		scores[i] = invSqrtFreq(c)
	}
	return &StatCoverage{scores: scores}
}

// NewPopAccuracyWith is NewPopAccuracy with an explicit popularity model,
// letting callers supply incrementally maintained counts (streaming
// ingestion) or counts restored from a snapshot instead of recounting train.
func NewPopAccuracyWith(pop *recommender.Pop, train *dataset.Dataset, topN int) *PopAccuracy {
	return &PopAccuracy{
		pop:      recommender.ScorerTopN{Scorer: pop},
		train:    train,
		topN:     topN,
		cache:    make(map[types.UserID][]uint64),
		cacheCap: 200_000,
	}
}
