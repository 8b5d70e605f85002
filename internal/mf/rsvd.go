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
	// NonNegative keeps every factor at or above zero (the paper's RSVDN
	// variant): the initial factors are reflected to their absolute values,
	// and a factor an update takes below zero is clamped to zero.
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
		absFactors(m.userF)
		absFactors(m.itemF)
	}

	ratings := train.Ratings()
	order := rng.Perm(len(ratings))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Reshuffle the visiting order each epoch.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m.epoch(ratings, order)
	}
	m.fp = linalg.NewFactorPair(m.userF, m.itemF)
	return m, nil
}

// Prefetch distances of the epoch loop, in steps: a rating is requested
// ratingAhead steps before its step, and its user and item rows rowsAhead
// steps before, by which time the rating itself has arrived.
const (
	ratingAhead = 16
	rowsAhead   = 4
)

// epoch makes one SGD pass over ratings in the given order, with the bits of
// one plain step per rating taken in that order (DESIGN.md §12, "Training").
// It walks the order two ratings at a time. A pair that shares neither user
// nor item has its two predictions computed in one loop — two independent add
// chains, so the second does not wait on the first's latency — and then its
// two updates applied in order: that is exact, because neither step reads a
// row or a bias the other writes. A pair that shares either, and an odd last
// rating, take plain steps. Prefetch hints run ahead of both.
func (m *RSVD) epoch(ratings []types.Rating, order []int) {
	n := len(order)
	for k := 0; k < n; k += 2 {
		for j := k; j < k+2; j++ {
			if j+ratingAhead < n {
				linalg.Prefetch(&ratings[order[j+ratingAhead]])
			}
			if j+rowsAhead < n {
				r := ratings[order[j+rowsAhead]]
				linalg.PrefetchRow(m.userF[r.User])
				linalg.PrefetchRow(m.itemF[r.Item])
			}
		}
		a := ratings[order[k]]
		if k+1 == n {
			m.apply(a, m.predict(a.User, a.Item))
			break
		}
		b := ratings[order[k+1]]
		if a.User == b.User || a.Item == b.Item {
			m.apply(a, m.predict(a.User, a.Item))
			m.apply(b, m.predict(b.User, b.Item))
			continue
		}
		pa, pb := m.predictPair(a, b)
		m.apply(a, pa)
		m.apply(b, pb)
	}
}

// apply is the update half of an SGD step on r, given the model's prediction
// for it.
func (m *RSVD) apply(r types.Rating, pred float64) {
	u, i := r.User, r.Item
	err := r.Value - pred
	lr, reg := m.cfg.LearningRate, m.cfg.Regularization

	if m.cfg.UseBiases {
		m.userBias[u] += lr * (err - reg*m.userBias[u])
		m.itemBias[i] += lr * (err - reg*m.itemBias[i])
	}
	linalg.SGDUpdate(m.userF[u], m.itemF[i], err, lr, reg, m.cfg.NonNegative)
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

// predictPair is predict for a and for b, each sum taken in predict's order,
// in one loop.
func (m *RSVD) predictPair(a, b types.Rating) (float64, float64) {
	sa, sb := m.globalMean, m.globalMean
	if m.cfg.UseBiases {
		sa += m.userBias[a.User] + m.itemBias[a.Item]
		sb += m.userBias[b.User] + m.itemBias[b.Item]
	}
	pa := m.userF[a.User]
	qa, pb, qb := m.itemF[a.Item][:len(pa)], m.userF[b.User][:len(pa)], m.itemF[b.Item][:len(pa)]
	for f := range pa {
		sa += pa[f] * qa[f]
		sb += pb[f] * qb[f]
	}
	return sa, sb
}

// Score implements recommender.Scorer: the predicted rating r̂_ui. A pair
// whose user or item the model has no row for scores the global mean μ alone:
// no bias is added, not even the known side's.
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
		fill(out[:len(items)], oob)
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

// ScoreCatalog32 implements recommender.CatalogScorer32: ScoreUser32 over the
// items [0, len(out)), bit for bit, in two passes over contiguous memory —
// the row kernel over the item block's rows, then the mean and bias terms in
// one linalg epilogue call (the items' biases are contiguous too). Items past
// the block score the global mean, as in ScoreUser32.
func (m *RSVD) ScoreCatalog32(u types.UserID, out []float32) {
	if int(u) < 0 || int(u) >= len(m.userF) {
		fill(out, float32(m.globalMean))
		return
	}
	n := min(len(out), m.fp.ItemB.Rows())
	m.fp.ItemDots32(u, types.CatalogItems(n), out[:n])
	m.catalogEpilogue(u, out, n)
}

// BoundCatalog32 implements recommender.CatalogBounder32: ScoreCatalog32's
// epilogue over the item block's dot bounds (linalg.FactorPair.DotBounds32)
// instead of its dots, one row for each side asked for. The epilogue is
// monotone in the dot, so each upper bound is at least the item's score and
// each lower bound at most it, or NaN; past the block both are the global
// mean, the score itself. An unknown user has none to give.
func (m *RSVD) BoundCatalog32(u types.UserID, upper, lower []float32) bool {
	if int(u) < 0 || int(u) >= len(m.userF) {
		return false
	}
	n := min(len(upper), m.fp.ItemB.Rows())
	if !m.fp.DotBounds32(u, upper[:n], lower) {
		return false
	}
	m.catalogEpilogue(u, upper, n)
	if lower != nil {
		m.catalogEpilogue(u, lower, n)
	}
	return true
}

// catalogEpilogue takes the latent terms of u's catalog in out[:n] to its
// scores: the mean and the user's and items' biases added in one linalg
// epilogue call; the items past the block score the global mean.
func (m *RSVD) catalogEpilogue(u types.UserID, out []float32, n int) {
	if m.cfg.UseBiases {
		linalg.AddBaseBias32(out[:n], m.globalMean+m.userBias[u], m.itemBias)
	} else {
		linalg.AddBase32(out[:n], m.globalMean)
	}
	fill(out[n:], float32(m.globalMean))
}

// fill sets every element of out to v.
func fill(out []float32, v float32) {
	for k := range out {
		out[k] = v
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

// absFactors replaces every factor by its absolute value: NonNegative's
// start, which keeps the initial spread where clamping would zero half of it.
func absFactors(factors [][]float64) {
	for _, row := range factors {
		for f := range row {
			if row[f] < 0 {
				row[f] = -row[f]
			}
		}
	}
}
