package core

import (
	"math/bits"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// State export/import hooks for the persistence and streaming-ingestion
// layers: the Dyn coverage frequencies and the PopAccuracy top-N membership
// cache are the two pieces of GANC state worth carrying across a restart —
// the former because the paper's dynamic objective is defined over it, the
// latter because rebuilding it costs one popularity sweep per user.

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

// CacheSnapshot exports the current top-N membership cache as a deterministic
// per-user item list (users and items in ascending order), the form persisted
// in engine snapshots so a warm-started process serves its first requests
// without recomputing the popularity sweeps.
func (p *PopAccuracy) CacheSnapshot() map[types.UserID][]types.ItemID {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[types.UserID][]types.ItemID, len(p.cache))
	for u, row := range p.cache {
		items := make([]types.ItemID, 0, p.topN)
		// Walking the bitset words low-to-high yields the items already in
		// ascending order, the form the snapshot format requires.
		for w, word := range row {
			for word != 0 {
				items = append(items, types.ItemID(w*64+bits.TrailingZeros64(word)))
				word &= word - 1
			}
		}
		out[u] = items
	}
	return out
}

// RestoreCache replaces the top-N membership cache with the exported form,
// respecting the configured cache bound (excess entries are dropped in
// ascending-user order so the restore is deterministic).
func (p *PopAccuracy) RestoreCache(snapshot map[types.UserID][]types.ItemID) {
	users := make([]types.UserID, 0, len(snapshot))
	for u := range snapshot {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })

	p.mu.Lock()
	defer p.mu.Unlock()
	words := (p.train.NumItems() + 63) / 64
	p.cache = make(map[types.UserID][]uint64, len(snapshot))
	for _, u := range users {
		if len(p.cache) >= p.cacheCap {
			break
		}
		rowWords := words
		for _, i := range snapshot[u] {
			if w := int(i)/64 + 1; w > rowWords {
				rowWords = w // snapshot from a larger catalog than train
			}
		}
		row := make([]uint64, rowWords)
		for _, i := range snapshot[u] {
			row[i>>6] |= 1 << (uint(i) & 63)
		}
		p.cache[u] = row
	}
}
