package rerank

import (
	"fmt"
	"math"
	"sort"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// PRAConfig configures the Personalized Ranking Adaptation re-ranker of
// Jugovac, Jannach & Lerche (2017), novelty variant. PRA estimates a per-user
// novelty tendency from item popularity statistics (the mean-and-deviation
// heuristic over the popularity of the user's rated items), then iteratively
// swaps items between the head of the accuracy ranking and an exchangeable
// candidate set until the top-N list's average novelty matches the user's
// tendency, or the swap budget is exhausted.
type PRAConfig struct {
	// N is the final list length.
	N int
	// ExchangeableSize |X_u| is the number of candidate items below the
	// top-N considered for swapping in (the paper evaluates 10 and 20).
	ExchangeableSize int
	// SampleSize S_u caps the number of rated items used to estimate the
	// user's tendency (the paper uses min(|I_u^R|, 10)).
	SampleSize int
	// MaxSteps bounds the number of greedy swaps (the paper uses 20).
	MaxSteps int
}

// DefaultPRAConfig mirrors the paper's configuration with |X_u| as given.
func DefaultPRAConfig(n, exchangeable int) PRAConfig {
	return PRAConfig{N: n, ExchangeableSize: exchangeable, SampleSize: 10, MaxSteps: 20}
}

// Validate checks the configuration.
func (c *PRAConfig) Validate() error {
	switch {
	case c.N <= 0:
		return fmt.Errorf("rerank: PRA N must be positive, got %d", c.N)
	case c.ExchangeableSize <= 0:
		return fmt.Errorf("rerank: PRA ExchangeableSize must be positive, got %d", c.ExchangeableSize)
	case c.SampleSize <= 0:
		return fmt.Errorf("rerank: PRA SampleSize must be positive, got %d", c.SampleSize)
	case c.MaxSteps < 0:
		return fmt.Errorf("rerank: PRA MaxSteps must be ≥ 0, got %d", c.MaxSteps)
	}
	return nil
}

// PRA is the Personalized Ranking Adaptation re-ranker.
type PRA struct {
	cfg    PRAConfig
	scorer recommender.Scorer
	train  *dataset.Dataset
	// novelty[i] is the item's novelty value in [0,1]: 1 − normalized log
	// popularity, so rarely rated items are novel.
	novelty []float64
	name    string
}

// NewPRA builds a PRA re-ranker around an accuracy scorer.
func NewPRA(train *dataset.Dataset, scorer recommender.Scorer, cfg PRAConfig) (*PRA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pop := train.PopularityVector()
	maxLog := 0.0
	novelty := make([]float64, len(pop))
	for _, p := range pop {
		if l := math.Log1p(float64(p)); l > maxLog {
			maxLog = l
		}
	}
	for i, p := range pop {
		if maxLog > 0 {
			novelty[i] = 1 - math.Log1p(float64(p))/maxLog
		} else {
			novelty[i] = 1
		}
	}
	return &PRA{
		cfg:     cfg,
		scorer:  scorer,
		train:   train,
		novelty: novelty,
		name:    fmt.Sprintf("PRA(%s, %d)", scorer.Name(), cfg.ExchangeableSize),
	}, nil
}

// Name identifies the re-ranker, following the paper's PRA(ARec, |X_u|)
// template.
func (p *PRA) Name() string { return p.name }

// userTendency estimates the user's novelty tendency with the paper's
// mean-and-deviation heuristic: the mean novelty of (a sample of) the items
// the user has rated, nudged upward by the sample's spread so users with
// eclectic histories are treated as more novelty-seeking.
func (p *PRA) userTendency(u types.UserID) float64 {
	items := p.train.UserItems(u)
	if len(items) == 0 {
		return 0
	}
	// Deterministic sample: the paper samples S_u items; we take the most
	// recent S_u (rating order) which is equivalent in expectation and keeps
	// the re-ranker reproducible.
	if len(items) > p.cfg.SampleSize {
		items = items[len(items)-p.cfg.SampleSize:]
	}
	vals := make([]float64, len(items))
	mean := 0.0
	for k, i := range items {
		vals[k] = p.novelty[i]
		mean += vals[k]
	}
	mean /= float64(len(vals))
	dev := 0.0
	for _, v := range vals {
		dev += (v - mean) * (v - mean)
	}
	dev = math.Sqrt(dev / float64(len(vals)))
	t := mean + 0.5*dev
	if t > 1 {
		t = 1
	}
	return t
}

// listNovelty is the average novelty of a list.
func (p *PRA) listNovelty(list []types.ItemID) float64 {
	if len(list) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range list {
		s += p.novelty[i]
	}
	return s / float64(len(list))
}

// Recommend implements recommender.TopN.
func (p *PRA) Recommend(u types.UserID, n int, candidates []types.ItemID) types.TopNSet {
	return cut(p.rerank(u, candidates), n)
}

// rerank produces user u's adapted top-N set using the "optimal swap"
// strategy: at each step, perform the single head/exchangeable swap that
// moves the list novelty closest to the user's tendency; stop when no swap
// improves the match or the step budget is exhausted.
func (p *PRA) rerank(u types.UserID, candidates []types.ItemID) types.TopNSet {
	n := p.cfg.N
	ranked := accuracyHead(p.scorer, u, n+p.cfg.ExchangeableSize, candidates)
	if len(ranked) == 0 {
		return nil
	}
	if len(ranked) <= n {
		return ranked.Clone()
	}
	top := append([]types.ItemID(nil), ranked[:n]...)
	pool := append([]types.ItemID(nil), ranked[n:]...)

	target := p.userTendency(u)
	for step := 0; step < p.cfg.MaxSteps; step++ {
		currentGap := math.Abs(p.listNovelty(top) - target)
		bestGap := currentGap
		bestTop, bestPool := -1, -1
		for ti := range top {
			for pi := range pool {
				// Novelty of the list after swapping top[ti] with pool[pi].
				newNov := p.listNovelty(top) + (p.novelty[pool[pi]]-p.novelty[top[ti]])/float64(len(top))
				gap := math.Abs(newNov - target)
				if gap < bestGap-1e-12 {
					bestGap, bestTop, bestPool = gap, ti, pi
				}
			}
		}
		if bestTop < 0 {
			break
		}
		top[bestTop], pool[bestPool] = pool[bestPool], top[bestTop]
	}
	// Keep the adapted set ordered by accuracy score so position still
	// reflects predicted relevance.
	sort.SliceStable(top, func(a, b int) bool {
		sa, sb := p.scorer.Score(u, top[a]), p.scorer.Score(u, top[b])
		if sa != sb {
			return sa > sb
		}
		return top[a] < top[b]
	})
	return types.TopNSet(top)
}
