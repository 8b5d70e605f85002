// Package mf implements the matrix-factorization base recommenders used by
// the paper: RSVD (regularized SVD trained with stochastic gradient descent,
// the paper's LIBMF configuration) and PSVD (PureSVD over the zero-imputed
// rating matrix, Cremonesi et al. 2010).
//
// Both models implement recommender.Scorer and recommender.BulkScorer32, so
// they can serve as the accuracy recommender inside GANC or be ranked directly
// through recommender.ScorerTopN.
package mf

import (
	"fmt"
	"math"
	"math/rand"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/types"
)

// RSVDConfig holds the hyper-parameters of the SGD matrix factorization,
// mirroring the knobs the paper cross-validates in Table V.
type RSVDConfig struct {
	// Factors is the latent dimensionality g.
	Factors int
	// LearningRate is the SGD step size η.
	LearningRate float64
	// Regularization is the L2 coefficient λ applied to factors and biases.
	Regularization float64
	// Epochs is the number of full passes over the train ratings.
	Epochs int
	// UseBiases enables the per-user and per-item bias terms. The paper's
	// LIBMF setup factorizes the raw matrix; biases are kept optional and on
	// by default because they improve RMSE on every dataset.
	UseBiases bool
	// NonNegative clamps factors at zero after each update (the paper's
	// RSVDN variant).
	NonNegative bool
	// InitStd is the standard deviation of the factor initialization.
	InitStd float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultRSVDConfig returns the configuration used for the dense MovieLens
// datasets in the paper (g=100, η=0.03, λ=0.05).
func DefaultRSVDConfig() RSVDConfig {
	return RSVDConfig{
		Factors:        100,
		LearningRate:   0.03,
		Regularization: 0.05,
		Epochs:         20,
		UseBiases:      true,
		InitStd:        0.1,
		Seed:           1,
	}
}

// Validate checks the configuration.
func (c *RSVDConfig) Validate() error {
	switch {
	case c.Factors <= 0:
		return fmt.Errorf("mf: Factors must be positive, got %d", c.Factors)
	case c.LearningRate <= 0:
		return fmt.Errorf("mf: LearningRate must be positive, got %v", c.LearningRate)
	case c.Regularization < 0:
		return fmt.Errorf("mf: Regularization must be non-negative, got %v", c.Regularization)
	case c.Epochs <= 0:
		return fmt.Errorf("mf: Epochs must be positive, got %d", c.Epochs)
	case c.InitStd <= 0:
		return fmt.Errorf("mf: InitStd must be positive, got %v", c.InitStd)
	}
	return nil
}

// RSVD is a regularized-SVD rating predictor: r̂_ui = μ + b_u + b_i + p_uᵀq_i.
type RSVD struct {
	cfg        RSVDConfig
	globalMean float64
	userBias   []float64
	itemBias   []float64
	userF      [][]float64
	itemF      [][]float64
	name       string

	// fp holds the factor rows as contiguous float32 blocks, the form bulk
	// scores are served from. It is built once, when training ends or a
	// snapshot is decoded; pointwise Score reads the float64 rows.
	fp linalg.FactorPair
}

// TrainRSVD fits an RSVD model on the train set.
func TrainRSVD(train *dataset.Dataset, cfg RSVDConfig) (*RSVD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if train.NumRatings() == 0 {
		return nil, fmt.Errorf("mf: cannot train RSVD on an empty dataset")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &RSVD{
		cfg:        cfg,
		globalMean: train.MeanRating(),
		userBias:   make([]float64, train.NumUsers()),
		itemBias:   make([]float64, train.NumItems()),
		userF:      initFactors(rng, train.NumUsers(), cfg.Factors, cfg.InitStd),
		itemF:      initFactors(rng, train.NumItems(), cfg.Factors, cfg.InitStd),
		name:       "RSVD",
	}
	if cfg.NonNegative {
		m.name = "RSVDN"
		clampNonNegative(m.userF)
		clampNonNegative(m.itemF)
	}

	ratings := train.Ratings()
	order := rng.Perm(len(ratings))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Reshuffle the visiting order each epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			r := ratings[idx]
			m.sgdStep(r)
		}
	}
	m.fp = linalg.NewFactorPair(m.userF, m.itemF)
	return m, nil
}

func (m *RSVD) sgdStep(r types.Rating) {
	u, i := r.User, r.Item
	pred := m.predict(u, i)
	err := r.Value - pred
	lr, reg := m.cfg.LearningRate, m.cfg.Regularization

	if m.cfg.UseBiases {
		m.userBias[u] += lr * (err - reg*m.userBias[u])
		m.itemBias[i] += lr * (err - reg*m.itemBias[i])
	}
	pu, qi := m.userF[u], m.itemF[i]
	for f := range pu {
		puf, qif := pu[f], qi[f]
		pu[f] += lr * (err*qif - reg*puf)
		qi[f] += lr * (err*puf - reg*qif)
		if m.cfg.NonNegative {
			if pu[f] < 0 {
				pu[f] = 0
			}
			if qi[f] < 0 {
				qi[f] = 0
			}
		}
	}
}

func (m *RSVD) predict(u types.UserID, i types.ItemID) float64 {
	s := m.globalMean
	if m.cfg.UseBiases {
		s += m.userBias[u] + m.itemBias[i]
	}
	pu, qi := m.userF[u], m.itemF[i]
	for f := range pu {
		s += pu[f] * qi[f]
	}
	return s
}

// Score implements recommender.Scorer: the predicted rating r̂_ui. Unknown
// users or items fall back to the global mean (plus the known side's bias).
func (m *RSVD) Score(u types.UserID, i types.ItemID) float64 {
	if int(u) < 0 || int(u) >= len(m.userF) || int(i) < 0 || int(i) >= len(m.itemF) {
		return m.globalMean
	}
	return m.predict(u, i)
}

// ScoreUser32 implements recommender.BulkScorer32, the model's one bulk
// body: a row-kernel call over the contiguous float32 blocks leaves every
// candidate's dot in out, and a second pass over out adds the mean and bias
// terms in float64. Scores match pointwise Score to the tolerance DESIGN.md
// §12 documents, not bit for bit.
func (m *RSVD) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	oob := float32(m.globalMean)
	if int(u) < 0 || int(u) >= len(m.userF) {
		for k := range items {
			out[k] = oob
		}
		return
	}
	base := m.globalMean
	if m.cfg.UseBiases {
		base += m.userBias[u]
	}
	m.fp.ItemDots32(u, items, out)
	out = out[:len(items)]
	useBiases, itemBias := m.cfg.UseBiases, m.itemBias
	for k, i := range items {
		if uint(i) >= uint(len(m.itemF)) { // one compare: a negative identifier converts to a huge one
			out[k] = oob
			continue
		}
		s := base + float64(out[k])
		if useBiases {
			s += itemBias[i]
		}
		out[k] = float32(s)
	}
}

// Name implements recommender.Scorer.
func (m *RSVD) Name() string { return m.name }

// Factors returns the latent dimensionality of the trained model.
func (m *RSVD) Factors() int { return m.cfg.Factors }

// RMSE computes the root-mean-square error of the model on a dataset
// (typically the held-out test set), the metric the paper's Table V reports.
func (m *RSVD) RMSE(d *dataset.Dataset) float64 {
	if d.NumRatings() == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range d.Ratings() {
		e := r.Value - m.Score(r.User, r.Item)
		sum += e * e
	}
	return math.Sqrt(sum / float64(d.NumRatings()))
}

// MAE computes the mean absolute error on a dataset.
func (m *RSVD) MAE(d *dataset.Dataset) float64 {
	if d.NumRatings() == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range d.Ratings() {
		sum += math.Abs(r.Value - m.Score(r.User, r.Item))
	}
	return sum / float64(d.NumRatings())
}

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

func clampNonNegative(factors [][]float64) {
	for _, row := range factors {
		for f := range row {
			if row[f] < 0 {
				row[f] = -row[f]
			}
		}
	}
}
