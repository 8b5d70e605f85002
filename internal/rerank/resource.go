package rerank

import (
	"fmt"
	"math"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// FiveDConfig configures the resource-allocation (5D) re-ranker of Ho, Chiang
// & Hsu (WSDM 2014). The method has two phases: (1) users allocate resources
// to the items they rated, proportional to the rating value, so long-tail
// items with enthusiastic raters accumulate resource; (2) a per-user-item
// score combining five facets (accuracy, balance, coverage, quality, quantity
// of long-tail items) is computed, optionally passed through an accuracy
// filter (A) and a rank-by-rankings (RR) aggregation, and top-N sets are read
// off the combined score.
type FiveDConfig struct {
	// N is the final list length.
	N int
	// K is the size of the accuracy candidate head considered per user,
	// following the paper's k = 3·|I| scaled down to k = 3·N·TMax in this
	// implementation to stay tractable on the full catalog; a non-positive
	// value selects the default of 15·N.
	K int
	// Q is the resource-allocation exponent (the paper's q = 1).
	Q float64
	// AccuracyFilter enables the (A) variant: items whose accuracy score is
	// below the user's mean predicted score are dropped before re-scoring.
	AccuracyFilter bool
	// RankByRankings enables the (RR) variant: the final ordering aggregates
	// the rank positions under the accuracy score and the 5D score instead of
	// summing raw scores.
	RankByRankings bool
}

// DefaultFiveDConfig mirrors the paper's defaults (q = 1).
func DefaultFiveDConfig(n int) FiveDConfig {
	return FiveDConfig{N: n, K: 0, Q: 1, AccuracyFilter: false, RankByRankings: false}
}

// Validate checks the configuration.
func (c *FiveDConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("rerank: 5D N must be positive, got %d", c.N)
	}
	if c.Q <= 0 {
		return fmt.Errorf("rerank: 5D Q must be positive, got %v", c.Q)
	}
	return nil
}

// FiveD is the resource-allocation re-ranker.
type FiveD struct {
	cfg      FiveDConfig
	scorer   recommender.Scorer
	train    *dataset.Dataset
	resource []float64 // per-item allocated resource, phase 1
	tail     map[types.ItemID]struct{}
	pop      []int
	name     string
}

// NewFiveD builds the re-ranker around a rating-prediction scorer.
func NewFiveD(train *dataset.Dataset, scorer recommender.Scorer, cfg FiveDConfig) (*FiveD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.K <= 0 {
		cfg.K = 15 * cfg.N
	}
	f := &FiveD{
		cfg:    cfg,
		scorer: scorer,
		train:  train,
		tail:   train.LongTail(dataset.DefaultTailShare),
		pop:    train.PopularityVector(),
	}
	f.allocateResources()
	variant := "5D(" + scorer.Name()
	if cfg.AccuracyFilter {
		variant += ", A"
	}
	if cfg.RankByRankings {
		variant += ", RR"
	}
	f.name = variant + ")"
	return f, nil
}

// allocateResources implements phase 1: every user distributes one unit of
// resource across their rated items proportionally to (rating)^q, so items
// that attracted strong interest — especially from users with small profiles
// — end up with more resource per rating. The allocation is then normalized
// by item popularity so that a long-tail item loved by its few raters scores
// high.
func (f *FiveD) allocateResources() {
	res := make([]float64, f.train.NumItems())
	for u := 0; u < f.train.NumUsers(); u++ {
		uid := types.UserID(u)
		idxs := f.train.UserRatings(uid)
		if len(idxs) == 0 {
			continue
		}
		total := 0.0
		for _, idx := range idxs {
			total += math.Pow(f.train.Rating(idx).Value, f.cfg.Q)
		}
		if total == 0 {
			continue
		}
		for _, idx := range idxs {
			r := f.train.Rating(idx)
			res[r.Item] += math.Pow(r.Value, f.cfg.Q) / total
		}
	}
	// Per-item normalization: resource per rating, favouring items whose few
	// observations are enthusiastic.
	for i := range res {
		if f.pop[i] > 0 {
			res[i] /= float64(f.pop[i])
		}
	}
	f.resource = res
}

// Name identifies the re-ranker, following the paper's 5D(ARec, A, RR)
// template.
func (f *FiveD) Name() string { return f.name }

// fiveDScore is the phase-2 multi-facet score of item i for user u. The five
// facets are folded into two observable components here: the allocated
// resource (covering balance, coverage, quality and long-tail quantity, all
// of which the resource captures once normalized per rating) and the user's
// accuracy score.
func (f *FiveD) fiveDScore(u types.UserID, i types.ItemID) float64 {
	resource := f.resource[i]
	ltBonus := 0.0
	if _, isTail := f.tail[i]; isTail {
		ltBonus = resource
	}
	return resource + ltBonus
}

// Recommend implements recommender.TopN.
func (f *FiveD) Recommend(u types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	return cut(f.rerank(u, candidates), n)
}

// rerank produces user u's re-ranked top-N set.
func (f *FiveD) rerank(u types.UserID, candidates []types.ItemID) types.TopNSet {
	n := f.cfg.N
	head := accuracyHead(f.scorer, u, f.cfg.K, candidates)
	if len(head) == 0 {
		return nil
	}
	pool := head
	if f.cfg.AccuracyFilter {
		// Keep only items whose accuracy score is at least the mean accuracy
		// score of the head.
		mean := 0.0
		for _, i := range head {
			mean += f.scorer.Score(u, i)
		}
		mean /= float64(len(head))
		var filtered []types.ItemID
		for _, i := range head {
			if f.scorer.Score(u, i) >= mean {
				filtered = append(filtered, i)
			}
		}
		if len(filtered) >= n {
			pool = filtered
		}
	}

	if f.cfg.RankByRankings {
		// Aggregate the rank under the accuracy score and the rank under the
		// 5D score (lower summed rank is better).
		accRank := rankPositions(pool, func(i types.ItemID) float64 { return f.scorer.Score(u, i) })
		fdRank := rankPositions(pool, func(i types.ItemID) float64 { return f.fiveDScore(u, i) })
		out := append([]types.ItemID(nil), pool...)
		sort.SliceStable(out, func(a, b int) bool {
			ra := accRank[out[a]] + fdRank[out[a]]
			rb := accRank[out[b]] + fdRank[out[b]]
			if ra != rb {
				return ra < rb
			}
			return out[a] < out[b]
		})
		if len(out) > n {
			out = out[:n]
		}
		return types.TopNSet(out)
	}

	scores := make([]float64, len(pool))
	for k, i := range pool {
		scores[k] = f.fiveDScore(u, i)
	}
	return recommender.SelectTop(pool, scores, n)
}

// rankPositions maps each item to its 1-based rank under score (descending).
func rankPositions(items []types.ItemID, score func(types.ItemID) float64) map[types.ItemID]int {
	sorted := append([]types.ItemID(nil), items...)
	recommender.SortItemsByScoreDesc(sorted, score)
	out := make(map[types.ItemID]int, len(sorted))
	for pos, i := range sorted {
		out[i] = pos + 1
	}
	return out
}
