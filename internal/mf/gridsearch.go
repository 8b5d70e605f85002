package mf

import (
	"fmt"
	"math"
	"math/rand"

	"ganc/internal/dataset"
)

// Hyper-parameter search for RSVD, mirroring the paper's Table V protocol:
// the candidate grids over the number of latent factors g, the
// L2-regularization coefficient λ and the learning rate η are evaluated by
// k-fold cross-validation on the train set, and the configuration with the
// lowest mean validation RMSE wins.

// Grid describes the candidate values for the RSVD hyper-parameter search.
// Empty slices fall back to the paper's grids.
type Grid struct {
	Factors        []int
	Regularization []float64
	LearningRate   []float64
}

// DefaultGrid returns the paper's cross-validation grid (Appendix A), reduced
// to the values that matter at library scale.
func DefaultGrid() Grid {
	return Grid{
		Factors:        []int{8, 20, 40, 100},
		Regularization: []float64{0.005, 0.01, 0.05, 0.1},
		LearningRate:   []float64{0.003, 0.01, 0.03},
	}
}

// GridResult is the outcome of one evaluated configuration.
type GridResult struct {
	Config RSVDConfig
	// MeanRMSE is the mean validation RMSE across folds.
	MeanRMSE float64
}

// CrossValidateRSVD evaluates every configuration in the grid with k-fold
// cross-validation over the train set and returns one result per
// configuration, in grid order (factors outermost, then regularization, then
// learning rate), not sorted by RMSE; use Best to select the winner. A
// configuration whose every validation fold came out empty has no result.
// The base configuration supplies everything the grid does not vary (epochs,
// biases, seed).
func CrossValidateRSVD(train *dataset.Dataset, base RSVDConfig, grid Grid, folds int, seed int64) ([]GridResult, error) {
	if train.NumRatings() < folds || folds < 2 {
		return nil, fmt.Errorf("mf: need at least %d ratings and 2 folds, got %d ratings / %d folds",
			folds, train.NumRatings(), folds)
	}
	if len(grid.Factors) == 0 {
		grid.Factors = DefaultGrid().Factors
	}
	if len(grid.Regularization) == 0 {
		grid.Regularization = DefaultGrid().Regularization
	}
	if len(grid.LearningRate) == 0 {
		grid.LearningRate = DefaultGrid().LearningRate
	}

	// Build the fold splits once so every configuration sees the same folds.
	type foldPair struct{ fit, val *dataset.Dataset }
	pairs := make([]foldPair, 0, folds)
	rng := rand.New(rand.NewSource(seed))
	for f := 0; f < folds; f++ {
		// Per-user holdout with a fold-specific RNG keeps every fold's
		// validation set disjoint in expectation and every user represented
		// in the fit set.
		sp := train.SplitByUser(1-1/float64(folds), rand.New(rand.NewSource(rng.Int63())))
		pairs = append(pairs, foldPair{fit: sp.Train, val: sp.Test})
	}

	var results []GridResult
	for _, g := range grid.Factors {
		for _, reg := range grid.Regularization {
			for _, lr := range grid.LearningRate {
				cfg := base
				cfg.Factors, cfg.Regularization, cfg.LearningRate = g, reg, lr
				if err := cfg.Validate(); err != nil {
					return nil, err
				}
				sum, used := 0.0, 0
				for _, p := range pairs {
					if p.val.NumRatings() == 0 {
						continue
					}
					m, err := TrainRSVD(p.fit, cfg)
					if err != nil {
						return nil, err
					}
					sum += m.RMSE(p.val)
					used++
				}
				if used == 0 {
					continue
				}
				results = append(results, GridResult{Config: cfg, MeanRMSE: sum / float64(used)})
			}
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("mf: cross-validation produced no results (empty validation folds)")
	}
	return results, nil
}

// Best returns the configuration with the lowest mean validation RMSE.
func Best(results []GridResult) (GridResult, error) {
	if len(results) == 0 {
		return GridResult{}, fmt.Errorf("mf: Best called with no results")
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.MeanRMSE < best.MeanRMSE || (r.MeanRMSE == best.MeanRMSE && r.Config.Factors < best.Config.Factors) {
			best = r
		}
	}
	if math.IsNaN(best.MeanRMSE) {
		return GridResult{}, fmt.Errorf("mf: best configuration has NaN RMSE")
	}
	return best, nil
}
