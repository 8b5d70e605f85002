package core

import (
	"ganc/internal/dataset"
	"ganc/internal/recommender"
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

// NewPopAccuracyWith builds the paper's indicator-style Pop accuracy
// recommender over an explicit popularity model — one counted from an
// ingested train set or restored from a snapshot. topN is
// the N of the top-N sets being constructed.
func NewPopAccuracyWith(pop *recommender.Pop, train *dataset.Dataset, topN int) *PopAccuracy {
	return &PopAccuracy{pop: pop, train: train, topN: topN}
}
