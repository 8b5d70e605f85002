// Package rerank implements the re-ranking baselines the paper compares GANC
// against (Section IV-A):
//
//   - RBT — Ranking-Based Techniques (Adomavicius & Kwon, TKDE 2012): items
//     whose predicted rating clears a threshold T_R are re-ranked by an
//     alternative criterion (item popularity, ascending, or average rating)
//     while the rest keep the accuracy order.
//   - 5D resource allocation (Ho, Chiang & Hsu, WSDM 2014): resources are
//     spread from users to items proportionally to ratings, then top-N sets
//     are scored by a multi-facet score; optional accuracy filtering (A) and
//     rank-by-rankings (RR) variants.
//   - PRA — Personalized Ranking Adaptation (Jugovac, Jannach & Lerche,
//     2017): per-user novelty tendencies estimated from item popularity
//     statistics, followed by iterative greedy swaps between the top-N head
//     and an exchangeable candidate set until the list's novelty matches the
//     user's tendency.
//
// Each re-ranker consumes an accuracy scorer (typically RSVD) and is a
// recommender.TopN over the user's candidate slice, so it is batch-generated
// by recommender.RecommendAll, served by recommender.TopNEngine and plugs into
// the same evaluation harness as GANC.
package rerank

import (
	"fmt"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// RBTCriterion selects the secondary ranking criterion of the RBT re-ranker.
type RBTCriterion int

const (
	// RBTPop re-ranks qualifying head items by ascending popularity
	// (least-popular first), the paper's RBT(·, Pop) variant.
	RBTPop RBTCriterion = iota
	// RBTAvg re-ranks qualifying head items by descending item average
	// rating, the paper's RBT(·, Avg) variant.
	RBTAvg
)

// String names the criterion.
func (c RBTCriterion) String() string {
	switch c {
	case RBTPop:
		return "Pop"
	case RBTAvg:
		return "Avg"
	default:
		return "?"
	}
}

// RBTConfig configures the RBT re-ranker.
type RBTConfig struct {
	// N is the length of the final top-N set.
	N int
	// TR is the ranking threshold: only items whose predicted rating is at
	// least TR are eligible for re-ranking by the secondary criterion. The
	// paper tests TR ∈ {4, 4.2, 4.5} and settles on 4.5.
	TR float64
	// TMax is the size of the candidate head, expressed as a multiple of N
	// (the paper sets Tmax = 5, i.e. the top 5·N predictions are considered).
	TMax int
	// TH is the minimum number of qualifying items required before
	// re-ranking kicks in for a user (the paper uses 1, or 0 for the largest
	// datasets).
	TH int
	// Criterion selects Pop or Avg.
	Criterion RBTCriterion
}

// DefaultRBTConfig mirrors the paper's configuration.
func DefaultRBTConfig(n int, criterion RBTCriterion) RBTConfig {
	return RBTConfig{N: n, TR: 4.5, TMax: 5, TH: 1, Criterion: criterion}
}

// Validate checks the configuration.
func (c *RBTConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("rerank: RBT N must be positive, got %d", c.N)
	case c.TMax < 1:
		return fmt.Errorf("rerank: RBT TMax must be ≥ 1, got %d", c.TMax)
	case c.TH < 0:
		return fmt.Errorf("rerank: RBT TH must be ≥ 0, got %d", c.TH)
	}
	return nil
}

// RBT is the Ranking-Based Techniques re-ranker.
type RBT struct {
	cfg     RBTConfig
	scorer  recommender.Scorer
	pop     []int
	itemAvg *recommender.ItemAvg
	name    string
}

// NewRBT builds an RBT re-ranker around a rating-prediction scorer (the
// paper uses RSVD).
func NewRBT(train *dataset.Dataset, scorer recommender.Scorer, cfg RBTConfig) (*RBT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RBT{
		cfg:     cfg,
		scorer:  scorer,
		pop:     train.PopularityVector(),
		itemAvg: recommender.NewItemAvg(train, 0),
		name:    fmt.Sprintf("RBT(%s, %s)", scorer.Name(), cfg.Criterion),
	}, nil
}

// Name identifies the re-ranker, following the paper's RBT(ARec, criterion)
// template.
func (r *RBT) Name() string { return r.name }

// accuracyHead is the base scorer's top-k over the candidate slice, the
// accuracy ranking every re-ranker starts from.
func accuracyHead(s recommender.Scorer, u types.UserID, k int, candidates []types.ItemID) types.TopNSet {
	return (&recommender.ScorerTopN{Scorer: s}).Recommend(u, k, candidates)
}

// cut truncates a list built at a re-ranker's configured N to the n a request
// asked for: a shorter list is a prefix of the full one, not a re-ranking at
// a smaller N.
func cut(set types.TopNSet, n int) types.TopNSet {
	if n <= 0 {
		return nil
	}
	if n < len(set) {
		return set[:n]
	}
	return set
}

// Recommend implements recommender.TopN.
func (r *RBT) Recommend(u types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	return cut(r.rerank(u, candidates), n)
}

// rerank produces user u's re-ranked top-N set.
func (r *RBT) rerank(u types.UserID, candidates []types.ItemID) types.TopNSet {
	n := r.cfg.N
	head := accuracyHead(r.scorer, u, n*r.cfg.TMax, candidates)
	if len(head) == 0 {
		return nil
	}
	// Partition the head into qualifying items (predicted rating ≥ TR) and
	// the rest (which keep the accuracy order).
	var qualified, rest []types.ItemID
	for _, i := range head {
		if r.scorer.Score(u, i) >= r.cfg.TR {
			qualified = append(qualified, i)
		} else {
			rest = append(rest, i)
		}
	}
	if len(qualified) < r.cfg.TH || len(qualified) == 0 {
		// Not enough confident items: fall back to the pure accuracy ranking.
		if len(head) > n {
			return head[:n].Clone()
		}
		return head.Clone()
	}
	switch r.cfg.Criterion {
	case RBTPop:
		// Ascending popularity: the least popular confident items first.
		sort.SliceStable(qualified, func(a, b int) bool {
			pa, pb := r.pop[qualified[a]], r.pop[qualified[b]]
			if pa != pb {
				return pa < pb
			}
			return qualified[a] < qualified[b]
		})
	case RBTAvg:
		// Descending item average rating.
		sort.SliceStable(qualified, func(a, b int) bool {
			aa, ab := r.itemAvg.Avg(qualified[a]), r.itemAvg.Avg(qualified[b])
			if aa != ab {
				return aa > ab
			}
			return qualified[a] < qualified[b]
		})
	}
	merged := append(append(make([]types.ItemID, 0, len(head)), qualified...), rest...)
	if len(merged) > n {
		merged = merged[:n]
	}
	return types.TopNSet(merged)
}
