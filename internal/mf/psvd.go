package mf

import (
	"fmt"

	"ganc/internal/dataset"
	"ganc/internal/linalg"
	"ganc/internal/types"
)

// PSVD is the PureSVD recommender of Cremonesi et al. (RecSys 2010): missing
// ratings are imputed with zeros and a rank-k truncated SVD of the resulting
// |U|×|I| matrix is taken. The score of item i for user u is the (u, i) entry
// of the rank-k reconstruction, which measures the association between the
// user and the item rather than a predicted rating.
//
// The paper evaluates PSVD10 (10 factors) and PSVD100 (100 factors); both are
// just PSVD with a different Factors value.
type PSVD struct {
	factors    int
	userF      [][]float64 // |U| × k, already scaled by the singular values
	itemF      [][]float64 // |I| × k
	name       string
	numItems   int
	numUsers   int
	singulars  []float64
	powerIters int

	// fp holds the factor rows as contiguous float32 blocks, built once at
	// train or decode time; see RSVD.
	fp linalg.FactorPair
}

// PSVDConfig configures PureSVD training.
type PSVDConfig struct {
	// Factors is the truncation rank k.
	Factors int
	// PowerIterations refines the randomized range sketch; 2 is enough for
	// rating matrices (see internal/linalg).
	PowerIterations int
	// Seed drives the randomized SVD sketch.
	Seed int64
}

// DefaultPSVDConfig returns a PSVD100-style configuration.
func DefaultPSVDConfig() PSVDConfig {
	return PSVDConfig{Factors: 100, PowerIterations: 2, Seed: 1}
}

// TrainPSVD factorizes the zero-imputed train matrix at rank cfg.Factors.
func TrainPSVD(train *dataset.Dataset, cfg PSVDConfig) (*PSVD, error) {
	if cfg.Factors <= 0 {
		return nil, fmt.Errorf("mf: PSVD Factors must be positive, got %d", cfg.Factors)
	}
	if train.NumRatings() == 0 {
		return nil, fmt.Errorf("mf: cannot train PSVD on an empty dataset")
	}
	k := cfg.Factors
	maxRank := train.NumUsers()
	if train.NumItems() < maxRank {
		maxRank = train.NumItems()
	}
	if k > maxRank {
		k = maxRank
	}
	if cfg.PowerIterations < 0 {
		cfg.PowerIterations = 0
	}

	entries := make([]linalg.Entry, 0, train.NumRatings())
	for _, r := range train.Ratings() {
		entries = append(entries, linalg.Entry{Row: int(r.User), Col: int(r.Item), Value: r.Value})
	}
	sp := linalg.NewSparse(train.NumUsers(), train.NumItems(), entries)
	res, err := linalg.TruncatedSVD(sp, k, cfg.PowerIterations, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("mf: PSVD factorization: %w", err)
	}

	// Pre-multiply U by the singular values so scoring is a plain dot product.
	userF := make([][]float64, train.NumUsers())
	for u := 0; u < train.NumUsers(); u++ {
		row := make([]float64, k)
		for f := 0; f < k; f++ {
			row[f] = res.U.At(u, f) * res.S[f]
		}
		userF[u] = row
	}
	itemF := make([][]float64, train.NumItems())
	for i := 0; i < train.NumItems(); i++ {
		row := make([]float64, k)
		for f := 0; f < k; f++ {
			row[f] = res.V.At(i, f)
		}
		itemF[i] = row
	}
	return &PSVD{
		factors:    k,
		userF:      userF,
		itemF:      itemF,
		name:       fmt.Sprintf("PSVD%d", cfg.Factors),
		numItems:   train.NumItems(),
		numUsers:   train.NumUsers(),
		singulars:  res.S,
		powerIters: cfg.PowerIterations,
		fp:         linalg.NewFactorPair(userF, itemF),
	}, nil
}

// Score implements recommender.Scorer: the rank-k association between user u
// and item i. Out-of-range identifiers score zero.
func (m *PSVD) Score(u types.UserID, i types.ItemID) float64 {
	if int(u) < 0 || int(u) >= m.numUsers || int(i) < 0 || int(i) >= m.numItems {
		return 0
	}
	pu, qi := m.userF[u], m.itemF[i]
	s := 0.0
	for f := range pu {
		s += pu[f] * qi[f]
	}
	return s
}

// ScoreUser32 implements recommender.BulkScorer32, the model's one bulk
// body: PSVD has no bias terms, so a score is just the kernel dot, and
// out-of-range identifiers score zero (see RSVD.ScoreUser32).
func (m *PSVD) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	if int(u) < 0 || int(u) >= m.numUsers {
		for k := range items {
			out[k] = 0
		}
		return
	}
	m.fp.ItemDots32(u, items, out)
}

// Name implements recommender.Scorer ("PSVD10", "PSVD100", ...).
func (m *PSVD) Name() string { return m.name }

// Factors returns the effective truncation rank (it may be smaller than the
// configured rank when the matrix is smaller than the request).
func (m *PSVD) Factors() int { return m.factors }

// SingularValues returns the singular values of the factorization in
// descending order.
func (m *PSVD) SingularValues() []float64 {
	out := make([]float64, len(m.singulars))
	copy(out, m.singulars)
	return out
}
