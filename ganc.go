// Package ganc is the public facade of the GANC library — a reproduction of
// "A Generic Top-N Recommendation Framework For Trading-off Accuracy,
// Novelty, and Coverage" (Zolaktaf, Babanezhad, Pottinger; ICDE 2018).
//
// The implementation lives in the internal/ packages; this package re-exports
// the types and constructors a downstream application needs for the common
// workflow:
//
//  1. load or generate rating data           (LoadRatings, GeneratePreset, ...)
//  2. split it per user                       (Dataset.SplitByUser)
//  3. assemble the pipeline in one call      (NewPipeline + With... options)
//  4. serve or batch-generate through Engine (RecommendUser / RecommendAll)
//  5. evaluate accuracy/novelty/coverage     (NewEvaluator → Evaluate)
//  6. persist and warm-start                 (Pipeline.Save → LoadEngine)
//  7. ingest interaction streams             (NewIngestor → POST /ingest)
//
// Base models can be trained explicitly (TrainRSVD, TrainPSVD, ...) and
// passed to WithBase, or constructed by name from the model registry
// (WithBaseNamed, NewBaseScorer, NewReranker). Assembled pipelines, base
// models and re-ranking baselines all satisfy the Engine interface, whose
// online RecommendUser path is what NewServer builds on. A trained pipeline
// snapshots to a versioned binary file and reloads byte-identically, and the
// serving layer absorbs new interactions incrementally with write-ahead
// logging and periodic checkpoints (DESIGN.md §8).
//
// The package examples (quickstart, warmStart, onlineServing) are complete
// end-to-end programs; DESIGN.md has the architecture and the
// experiment-by-experiment map of the paper reproduction.
package ganc

import (
	"fmt"
	"io"
	"math/rand"

	"ganc/internal/core"
	"ganc/internal/dataset"
	"ganc/internal/eval"
	"ganc/internal/knn"
	"ganc/internal/longtail"
	"ganc/internal/mf"
	"ganc/internal/rank"
	"ganc/internal/recommender"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// Re-exported identifier and data types.
type (
	// UserID is a dense user index within a Dataset.
	UserID = types.UserID
	// ItemID is a dense item index within a Dataset.
	ItemID = types.ItemID
	// Rating is one observed user–item interaction.
	Rating = types.Rating
	// TopNSet is a ranked recommendation list for one user.
	TopNSet = types.TopNSet
	// Recommendations maps users to their top-N sets.
	Recommendations = types.Recommendations

	// Dataset is an immutable rating collection with per-user/item indexes.
	Dataset = dataset.Dataset
	// Split is a per-user train/test partition of a Dataset.
	Split = dataset.Split
	// LoadOptions configures rating-file parsing.
	LoadOptions = dataset.LoadOptions

	// SynthConfig describes a synthetic calibrated dataset.
	SynthConfig = synth.Config

	// Preferences holds per-user long-tail novelty preferences θ_u.
	Preferences = longtail.Preferences
	// PreferenceModel selects a θ estimator (Activity, TFIDF, Generalized...).
	PreferenceModel = longtail.Model

	// RSVD is the SGD-trained regularized matrix factorization model.
	RSVD = mf.RSVD
	// RSVDConfig holds its hyper-parameters.
	RSVDConfig = mf.RSVDConfig
	// PSVD is the PureSVD ranking model.
	PSVD = mf.PSVD
	// PSVDConfig holds its hyper-parameters.
	PSVDConfig = mf.PSVDConfig
	// CofiModel is the collaborative-ranking (CoFiRank-style) baseline.
	CofiModel = rank.Model
	// CofiConfig holds its hyper-parameters.
	CofiConfig = rank.Config
	// ItemKNN is the item-based nearest-neighbour recommender.
	ItemKNN = knn.ItemKNN
	// ItemKNNConfig holds its hyper-parameters.
	ItemKNNConfig = knn.Config

	// Scorer scores (user, item) pairs; all base models implement it.
	Scorer = recommender.Scorer

	// GANC is a configured instance of the re-ranking framework.
	GANC = core.GANC
	// GANCConfig holds N, the OSLG sample size and the random seed.
	GANCConfig = core.Config
	// AccuracyRecommender supplies a(i) ∈ [0,1] to the value function.
	AccuracyRecommender = core.AccuracyRecommender
	// CoverageRecommender supplies c(i) ∈ [0,1] to the value function.
	CoverageRecommender = core.CoverageRecommender

	// Evaluator computes the paper's Table III metrics against a split.
	Evaluator = eval.Evaluator
	// Report holds one algorithm's metrics at one N.
	Report = eval.Report
	// Protocol selects which items are ranked at evaluation time (Appendix C).
	Protocol = eval.Protocol
)

// Evaluation protocols (the paper reports all main results under
// ProtocolAllUnrated; ProtocolRatedTestItems exists to reproduce the
// Appendix C bias study).
const (
	ProtocolAllUnrated     = eval.ProtocolAllUnrated
	ProtocolRatedTestItems = eval.ProtocolRatedTestItems
)

// Preference model identifiers (the paper's θ^A, θ^N, θ^T, θ^G, θ^R, θ^C).
const (
	PreferenceActivity           = longtail.ModelActivity
	PreferenceNormalizedLongTail = longtail.ModelNormalizedLongTail
	PreferenceTFIDF              = longtail.ModelTFIDF
	PreferenceGeneralized        = longtail.ModelGeneralized
	PreferenceRandom             = longtail.ModelRandom
	PreferenceConstant           = longtail.ModelConstant
)

// ParsePreferenceModel resolves the paper's one-letter θ names (A, N, T, G,
// R, C) — the form the CLIs accept — to their PreferenceModel identifiers.
// Unknown strings pass through unchanged, so full model names keep working.
func ParsePreferenceModel(short string) PreferenceModel {
	switch short {
	case "A":
		return PreferenceActivity
	case "N":
		return PreferenceNormalizedLongTail
	case "T":
		return PreferenceTFIDF
	case "G":
		return PreferenceGeneralized
	case "R":
		return PreferenceRandom
	case "C":
		return PreferenceConstant
	default:
		return PreferenceModel(short)
	}
}

// LoadRatings reads a ratings file (CSV, MovieLens "::", or tab separated).
func LoadRatings(path string, opts LoadOptions) (*Dataset, error) {
	return dataset.LoadRatings(path, opts)
}

// ReadRatings parses ratings from any reader.
func ReadRatings(r io.Reader, opts LoadOptions) (*Dataset, error) {
	return dataset.ReadRatings(r, opts)
}

// GenerateDataset builds a synthetic dataset from an explicit configuration.
func GenerateDataset(cfg SynthConfig) (*Dataset, error) { return synth.Generate(cfg) }

// GenerateML100K builds the calibrated synthetic ML-100K stand-in (see
// DESIGN.md §4 for the substitution rationale). scale 1.0 reproduces the
// calibrated defaults; smaller values shrink everything proportionally.
func GenerateML100K(scale float64) (*Dataset, error) {
	return synth.Generate(synth.ML100K(synth.Scale(scale)))
}

// GeneratePreset generates the named synthetic preset at the given scale — the
// shared lookup the CLIs use for their -preset flags. The names are the paper's
// Table II datasets ("ML-100K", "ML-1M", "ML-10M", "MT-200K", "Netflix"); an
// unknown one answers an error listing them.
func GeneratePreset(name string, scale float64) (*Dataset, error) {
	cfg, _, err := synth.Preset(name, synth.Scale(scale))
	if err != nil {
		return nil, err
	}
	return synth.Generate(cfg)
}

// SplitByUser partitions d per user, keeping the fraction kappa of each
// user's ratings in train. A nil rng gives a fixed default seed.
func SplitByUser(d *Dataset, kappa float64, rng *rand.Rand) *Split {
	return d.SplitByUser(kappa, rng)
}

// TrainRSVD fits the regularized-SVD rating predictor.
func TrainRSVD(train *Dataset, cfg RSVDConfig) (*RSVD, error) { return mf.TrainRSVD(train, cfg) }

// DefaultRSVDConfig mirrors the paper's dense-dataset configuration.
func DefaultRSVDConfig() RSVDConfig { return mf.DefaultRSVDConfig() }

// TrainPSVD fits the PureSVD ranking model.
func TrainPSVD(train *Dataset, cfg PSVDConfig) (*PSVD, error) { return mf.TrainPSVD(train, cfg) }

// TrainCofi fits the collaborative-ranking baseline.
func TrainCofi(train *Dataset, cfg CofiConfig) (*CofiModel, error) { return rank.Train(train, cfg) }

// TrainItemKNN fits the item-based nearest-neighbour recommender.
func TrainItemKNN(train *Dataset, cfg ItemKNNConfig) (*ItemKNN, error) { return knn.Train(train, cfg) }

// DefaultItemKNNConfig returns a standard item-KNN configuration.
func DefaultItemKNNConfig() ItemKNNConfig { return knn.DefaultConfig() }

// NewPop builds the most-popular recommender from the train set.
func NewPop(train *Dataset) Scorer { return recommender.NewPop(train) }

// LoadRSVD reloads a model previously written with (*RSVD).Save, so
// applications can train offline and serve from snapshots. (Full-pipeline
// snapshots use Pipeline.Save / LoadEngine instead.) It reads r to its end.
func LoadRSVD(r io.Reader) (*RSVD, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	return mf.LoadRSVD(data)
}

// LoadPSVD reloads a model previously written with (*PSVD).Save. It reads r
// to its end.
func LoadPSVD(r io.Reader) (*PSVD, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	return mf.LoadPSVD(data)
}

// RSVDGrid and RSVDGridResult re-export the cross-validation grid search used
// to select the Table V hyper-parameters.
type (
	RSVDGrid       = mf.Grid
	RSVDGridResult = mf.GridResult
)

// CrossValidateRSVD evaluates an RSVD hyper-parameter grid by k-fold
// cross-validation; BestRSVDConfig selects the winner.
func CrossValidateRSVD(train *Dataset, base RSVDConfig, grid RSVDGrid, folds int, seed int64) ([]RSVDGridResult, error) {
	return mf.CrossValidateRSVD(train, base, grid, folds, seed)
}

// BestRSVDConfig returns the grid-search result with the lowest validation RMSE.
func BestRSVDConfig(results []RSVDGridResult) (RSVDGridResult, error) { return mf.Best(results) }

// NewEvaluator builds a Table III metrics evaluator for a split. beta ≤ 0
// selects the paper's stratified-recall exponent of 0.5.
func NewEvaluator(split *Split, beta float64) *Evaluator { return eval.NewEvaluator(split, beta) }

// RankReports computes the Table IV "Score" column: each algorithm's average
// rank across F-measure, stratified recall, LTAccuracy, coverage and Gini.
func RankReports(reports []Report) map[string]float64 { return eval.RankReports(reports) }

// RecommendWithProtocol ranks for every user under the chosen evaluation
// protocol (Appendix C): all unrated items, or only the user's rated test
// items.
func RecommendWithProtocol(s Scorer, split *Split, n int, protocol Protocol) Recommendations {
	return eval.RecommendWithProtocol(s, split, n, protocol)
}
