// Package rank implements the collaborative-ranking baseline the paper
// compares against (CoFiRank, Weimer et al. 2007). The original CoFiRank is a
// structured-output maximum-margin matrix factorization; this package
// provides a same-family stand-in implemented from scratch:
//
//   - CofiR — regression (squared) loss over observed ratings, the
//     configuration ("CofiR100") the paper actually reports because it
//     performed best in their experiments.
//   - CofiN — a pairwise logistic surrogate for the NDCG loss: for each user,
//     pairs of rated items with different rating values are sampled and the
//     model is trained to order them correctly, with higher-rated pairs
//     weighted more (an NDCG-style position-free weighting).
//
// DESIGN.md §4 documents this substitution. Both variants implement
// recommender.Scorer and recommender.BulkScorer32.
package rank

import (
	"fmt"
	"math"
	"math/rand"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/types"
)

// Loss selects the training objective of the CoFi model.
type Loss int

const (
	// LossRegression is the squared-error loss (CofiR).
	LossRegression Loss = iota
	// LossPairwise is the pairwise logistic ranking loss (CofiN).
	LossPairwise
)

// Config holds the hyper-parameters of the collaborative ranking model.
type Config struct {
	// Factors is the latent dimensionality (the paper uses 100).
	Factors int
	// Regularization is the L2 coefficient (the paper uses λ=10 for CoFiRank;
	// for this SGD formulation the equivalent shrinkage is much smaller, the
	// default is 0.05).
	Regularization float64
	// LearningRate is the SGD step size.
	LearningRate float64
	// Epochs is the number of passes over the training signal.
	Epochs int
	// Loss selects CofiR (regression) or CofiN (pairwise).
	Loss Loss
	// PairsPerUser is the number of item pairs sampled per user per epoch for
	// the pairwise loss; ignored for regression.
	PairsPerUser int
	// InitStd is the factor initialization scale.
	InitStd float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig returns the CofiR100-style configuration used in the paper's
// Figure 6 comparison.
func DefaultConfig() Config {
	return Config{
		Factors:        100,
		Regularization: 0.05,
		LearningRate:   0.02,
		Epochs:         15,
		Loss:           LossRegression,
		PairsPerUser:   40,
		InitStd:        0.1,
		Seed:           1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Factors <= 0:
		return fmt.Errorf("rank: Factors must be positive, got %d", c.Factors)
	case c.LearningRate <= 0:
		return fmt.Errorf("rank: LearningRate must be positive, got %v", c.LearningRate)
	case c.Regularization < 0:
		return fmt.Errorf("rank: Regularization must be non-negative, got %v", c.Regularization)
	case c.Epochs <= 0:
		return fmt.Errorf("rank: Epochs must be positive, got %d", c.Epochs)
	case c.InitStd <= 0:
		return fmt.Errorf("rank: InitStd must be positive, got %v", c.InitStd)
	case c.Loss == LossPairwise && c.PairsPerUser <= 0:
		return fmt.Errorf("rank: PairsPerUser must be positive for the pairwise loss, got %d", c.PairsPerUser)
	}
	return nil
}

// Model is a trained collaborative-ranking factorization.
type Model struct {
	cfg   Config
	userF [][]float64
	itemF [][]float64
	mean  float64
	name  string

	// fp holds the factor rows as contiguous float32 blocks, the form bulk
	// scores are served from. It is built once, when training ends or a
	// snapshot is decoded; pointwise Score reads the float64 rows.
	fp linalg.FactorPair
}

// Train fits the model on the train set.
func Train(train *dataset.Dataset, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.NumRatings() == 0 {
		return nil, fmt.Errorf("rank: cannot train on an empty dataset")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		cfg:   cfg,
		userF: initFactors(rng, train.NumUsers(), cfg.Factors, cfg.InitStd),
		itemF: initFactors(rng, train.NumItems(), cfg.Factors, cfg.InitStd),
		mean:  train.MeanRating(),
	}
	switch cfg.Loss {
	case LossRegression:
		m.name = fmt.Sprintf("CofiR%d", cfg.Factors)
		m.trainRegression(train, rng)
	case LossPairwise:
		m.name = fmt.Sprintf("CofiN%d", cfg.Factors)
		m.trainPairwise(train, rng)
	default:
		return nil, fmt.Errorf("rank: unknown loss %d", cfg.Loss)
	}
	m.fp = linalg.NewFactorPair(m.userF, m.itemF)
	return m, nil
}

func (m *Model) trainRegression(train *dataset.Dataset, rng *rand.Rand) {
	ratings := train.Ratings()
	order := rng.Perm(len(ratings))
	lr, reg := m.cfg.LearningRate, m.cfg.Regularization
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			r := ratings[idx]
			pu, qi := m.userF[r.User], m.itemF[r.Item]
			pred := m.mean + dot(pu, qi)
			err := r.Value - pred
			for f := range pu {
				puf, qif := pu[f], qi[f]
				pu[f] += lr * (err*qif - reg*puf)
				qi[f] += lr * (err*puf - reg*qif)
			}
		}
	}
}

func (m *Model) trainPairwise(train *dataset.Dataset, rng *rand.Rand) {
	lr, reg := m.cfg.LearningRate, m.cfg.Regularization
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for u := 0; u < train.NumUsers(); u++ {
			uid := types.UserID(u)
			idxs := train.UserRatings(uid)
			if len(idxs) < 2 {
				continue
			}
			pu := m.userF[u]
			for p := 0; p < m.cfg.PairsPerUser; p++ {
				a := train.Rating(idxs[rng.Intn(len(idxs))])
				b := train.Rating(idxs[rng.Intn(len(idxs))])
				if a.Value == b.Value {
					continue
				}
				// Ensure a is the preferred item.
				if b.Value > a.Value {
					a, b = b, a
				}
				qa, qb := m.itemF[a.Item], m.itemF[b.Item]
				margin := dot(pu, qa) - dot(pu, qb)
				// NDCG-style weighting: pairs involving higher ratings matter more.
				weight := (math.Pow(2, a.Value) - math.Pow(2, b.Value)) / math.Pow(2, 5)
				if weight < 0 {
					weight = -weight
				}
				// Logistic pairwise loss gradient: σ(-margin) pushes the
				// preferred item up and the other down.
				g := weight / (1 + math.Exp(margin))
				for f := range pu {
					puf, qaf, qbf := pu[f], qa[f], qb[f]
					pu[f] += lr * (g*(qaf-qbf) - reg*puf)
					qa[f] += lr * (g*puf - reg*qaf)
					qb[f] += lr * (-g*puf - reg*qbf)
				}
			}
		}
	}
}

// Score implements recommender.Scorer. For the regression loss the score is a
// predicted rating; for the pairwise loss it is an unscaled ranking score.
func (m *Model) Score(u types.UserID, i types.ItemID) float64 {
	if int(u) < 0 || int(u) >= len(m.userF) || int(i) < 0 || int(i) >= len(m.itemF) {
		if m.cfg.Loss == LossRegression {
			return m.mean
		}
		return 0
	}
	s := dot(m.userF[u], m.itemF[i])
	if m.cfg.Loss == LossRegression {
		s += m.mean
	}
	return s
}

// ScoreUser32 implements recommender.BulkScorer32, the model's one bulk
// body: the row kernel over the contiguous float32 blocks, then the train mean
// added in float64 for the regression loss (the pairwise loss serves the raw
// kernel dot). Scores match pointwise Score to the tolerance DESIGN.md §12
// documents, not bit for bit.
func (m *Model) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	base := m.base()
	if int(u) < 0 || int(u) >= len(m.userF) {
		oob := float32(base)
		for k := range items {
			out[k] = oob
		}
		return
	}
	// An identifier outside the item block leaves the kernel with a dot of 0,
	// so the same expression gives it the out-of-range score.
	m.fp.ItemDots32(u, items, out)
	for k, dot := range out[:len(items)] {
		out[k] = float32(base + float64(dot))
	}
}

// ScoreCatalog32 implements recommender.CatalogScorer32: ScoreUser32 over the
// items [0, len(out)), bit for bit — the row kernel over the item block's
// rows in order, a zero dot for the items past it, then the mean in one
// linalg epilogue call, which adds no bias term.
func (m *Model) ScoreCatalog32(u types.UserID, out []float32) {
	if int(u) < 0 || int(u) >= len(m.userF) {
		oob := float32(m.base())
		for k := range out {
			out[k] = oob
		}
		return
	}
	n := min(len(out), m.fp.ItemB.Rows())
	m.fp.ItemDots32(u, types.CatalogItems(n), out[:n])
	m.catalogEpilogue(out, n)
}

// BoundCatalog32 implements recommender.CatalogBounder32: ScoreCatalog32's
// epilogue over the item block's dot bounds (linalg.FactorPair.DotBounds32)
// instead of its dots, one row for each side asked for. The epilogue is
// monotone in the dot, so each upper bound is at least the item's score and
// each lower bound at most it, or NaN; past the block both are the score. An
// unknown user has none to give.
func (m *Model) BoundCatalog32(u types.UserID, upper, lower []float32) bool {
	if int(u) < 0 || int(u) >= len(m.userF) {
		return false
	}
	n := min(len(upper), m.fp.ItemB.Rows())
	if !m.fp.DotBounds32(u, upper[:n], lower) {
		return false
	}
	m.catalogEpilogue(upper, n)
	if lower != nil {
		m.catalogEpilogue(lower, n)
	}
	return true
}

// catalogEpilogue takes the latent terms of a catalog in out[:n] to its
// scores: a zero term for the items past the block, then the mean added to
// every one.
func (m *Model) catalogEpilogue(out []float32, n int) {
	clear(out[n:])
	linalg.AddBase32(out, m.base())
}

// base is the term a score adds to the kernel dot: the train mean for the
// regression loss, 0 for the pairwise loss.
func (m *Model) base() float64 {
	if m.cfg.Loss == LossRegression {
		return m.mean
	}
	return 0
}

// Name implements recommender.Scorer ("CofiR100", "CofiN100", ...).
func (m *Model) Name() string { return m.name }

// Factors returns the latent dimensionality.
func (m *Model) Factors() int { return m.cfg.Factors }

func initFactors(rng *rand.Rand, n, k int, std float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, k)
		for f := range row {
			row[f] = rng.NormFloat64() * std
		}
		out[i] = row
	}
	return out
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
