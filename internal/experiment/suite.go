// Package experiment is the reproduction harness: it wires the synthetic
// calibrated datasets, the base recommenders, the re-ranking baselines and
// GANC into runners that regenerate every table and figure of the paper's
// evaluation (Section IV, Section V and Appendix C). Each runner returns both
// a structured result (for tests) and a formatted text block (what
// `go run ./cmd/experiments` prints).
package experiment

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ganc/internal/core"
	"ganc/internal/dataset"
	"ganc/internal/eval"
	"ganc/internal/longtail"
	"ganc/internal/mf"
	"ganc/internal/rank"
	"ganc/internal/recommender"
	"ganc/internal/rerank"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// Suite is a configured experiment session: one scale factor, one random
// seed, and a cache of generated datasets, splits and trained base models so
// that successive runners reuse the expensive artifacts.
type Suite struct {
	// Scale multiplies the size of every synthetic dataset (1.0 = the
	// calibrated defaults described in internal/synth; smaller values give
	// faster, rougher runs).
	Scale synth.Scale
	// Seed drives dataset splitting, model initialization and sampling.
	Seed int64
	// N is the top-N cutoff used by the table experiments (the paper reports
	// N=5 throughout Section V).
	N int
	// SampleSize is OSLG's S (the paper fixes S=500 at full dataset scale;
	// the suite scales it with Scale so the sample remains a comparable
	// fraction of the user base).
	SampleSize int
	// Workers drives GANC's parallel phases (0/1 = sequential). Reports are
	// byte-identical for any worker count — the determinism tests in
	// cmd/experiments pin this.
	Workers int

	mu     sync.Mutex
	splits map[string]*dataset.Split
	rsvd   map[string]*mf.RSVD
	psvd   map[string]*mf.PSVD
}

// NewSuite builds a Suite. Non-positive arguments select defaults: scale
// 0.25, seed 1, N 5, and a sample size of 500 scaled by the scale factor.
func NewSuite(scale synth.Scale, seed int64, n, sampleSize int) *Suite {
	if scale <= 0 {
		scale = 0.25
	}
	if seed == 0 {
		seed = 1
	}
	if n <= 0 {
		n = 5
	}
	if sampleSize <= 0 {
		sampleSize = int(500 * float64(scale))
		if sampleSize < 20 {
			sampleSize = 20
		}
	}
	return &Suite{
		Scale:      scale,
		Seed:       seed,
		N:          n,
		SampleSize: sampleSize,
		splits:     make(map[string]*dataset.Split),
		rsvd:       make(map[string]*mf.RSVD),
		psvd:       make(map[string]*mf.PSVD),
	}
}

// DatasetNames returns the five paper datasets in Table II order.
func DatasetNames() []string {
	return []string{"ML-100K", "ML-1M", "ML-10M", "MT-200K", "Netflix"}
}

// presetFor maps a dataset name to its synthetic configuration.
func (s *Suite) presetFor(name string) (synth.Config, error) {
	switch name {
	case "ML-100K":
		return synth.ML100K(s.Scale), nil
	case "ML-1M":
		return synth.ML1M(s.Scale), nil
	case "ML-10M":
		return synth.ML10M(s.Scale), nil
	case "MT-200K":
		return synth.MT200K(s.Scale), nil
	case "Netflix":
		return synth.NetflixSample(s.Scale), nil
	default:
		return synth.Config{}, fmt.Errorf("experiment: unknown dataset %q", name)
	}
}

// Split returns the train/test split for the named dataset, generating and
// caching it on first use. The split ratio κ follows the paper's protocol
// (synth.Kappa).
func (s *Suite) Split(name string) (*dataset.Split, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.splits[name]; ok {
		return sp, nil
	}
	cfg, err := s.presetFor(name)
	if err != nil {
		return nil, err
	}
	d, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: generate %s: %w", name, err)
	}
	sp := d.SplitByUser(synth.Kappa(name), rand.New(rand.NewSource(s.Seed)))
	s.splits[name] = sp
	return sp, nil
}

// RSVD returns a trained RSVD model for the named dataset, cached across
// runners. The hyper-parameters follow Table V, with the epoch count reduced
// in proportion to the synthetic scale.
func (s *Suite) RSVD(name string) (*mf.RSVD, error) {
	s.mu.Lock()
	if m, ok := s.rsvd[name]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	sp, err := s.Split(name)
	if err != nil {
		return nil, err
	}
	cfg := s.rsvdConfigFor(name)
	m, err := mf.TrainRSVD(sp.Train, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.rsvd[name] = m
	s.mu.Unlock()
	return m, nil
}

// rsvdConfigFor mirrors the paper's Table V per-dataset configuration, with
// the factor count capped for the smaller synthetic stand-ins.
func (s *Suite) rsvdConfigFor(name string) mf.RSVDConfig {
	cfg := mf.DefaultRSVDConfig()
	cfg.Seed = s.Seed
	cfg.Epochs = 15
	switch name {
	case "ML-100K", "ML-1M":
		cfg.Factors, cfg.LearningRate, cfg.Regularization = 40, 0.03, 0.05
	case "ML-10M":
		cfg.Factors, cfg.LearningRate, cfg.Regularization = 20, 0.01, 0.02
	case "MT-200K":
		cfg.Factors, cfg.LearningRate, cfg.Regularization = 40, 0.01, 0.01
	case "Netflix":
		cfg.Factors, cfg.LearningRate, cfg.Regularization = 40, 0.01, 0.05
	}
	return cfg
}

// PSVD returns a trained PureSVD model with the requested rank for the named
// dataset. Rank-specific models are cached separately.
func (s *Suite) PSVD(name string, factors int) (*mf.PSVD, error) {
	key := fmt.Sprintf("%s/%d", name, factors)
	s.mu.Lock()
	if m, ok := s.psvd[key]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	sp, err := s.Split(name)
	if err != nil {
		return nil, err
	}
	m, err := mf.TrainPSVD(sp.Train, mf.PSVDConfig{Factors: factors, PowerIterations: 2, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.psvd[key] = m
	s.mu.Unlock()
	return m, nil
}

// CofiR trains the collaborative-ranking baseline (regression loss) on the
// named dataset. It is not cached because only Figure 6 uses it once per
// dataset.
func (s *Suite) CofiR(name string, factors int) (*rank.Model, error) {
	sp, err := s.Split(name)
	if err != nil {
		return nil, err
	}
	cfg := rank.DefaultConfig()
	cfg.Factors = factors
	cfg.Epochs = 10
	cfg.Seed = s.Seed
	return rank.Train(sp.Train, cfg)
}

// --- GANC assembly helpers -----------------------------------------------------

// AccuracyRecName identifies a base accuracy recommender in runner arguments.
type AccuracyRecName string

// The accuracy recommenders the experiment suite assembles GANC around.
const (
	ARecPop     AccuracyRecName = "Pop"
	ARecRSVD    AccuracyRecName = "RSVD"
	ARecPSVD10  AccuracyRecName = "PSVD10"
	ARecPSVD100 AccuracyRecName = "PSVD100"
)

// accuracyScorer returns the raw Scorer behind an accuracy recommender name.
func (s *Suite) accuracyScorer(datasetName string, arec AccuracyRecName) (recommender.Scorer, error) {
	switch arec {
	case ARecPop:
		sp, err := s.Split(datasetName)
		if err != nil {
			return nil, err
		}
		return recommender.NewPop(sp.Train), nil
	case ARecRSVD:
		return s.RSVD(datasetName)
	case ARecPSVD10:
		return s.PSVD(datasetName, 10)
	case ARecPSVD100:
		return s.PSVD(datasetName, 100)
	default:
		return nil, fmt.Errorf("experiment: unknown accuracy recommender %q", arec)
	}
}

// accuracyComponent adapts an accuracy recommender name into the GANC
// AccuracyRecommender component, normalizing scores to [0,1] where needed.
func (s *Suite) accuracyComponent(datasetName string, arec AccuracyRecName, n int) (core.AccuracyRecommender, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, err
	}
	if arec == ARecPop {
		return core.NewPopAccuracy(sp.Train, n), nil
	}
	scorer, err := s.accuracyScorer(datasetName, arec)
	if err != nil {
		return nil, err
	}
	norm := recommender.NewNormalizedScorer(scorer, sp.Train.NumItems())
	return &core.ScorerAccuracy{Scorer: norm}, nil
}

// CoverageRecName identifies a coverage recommender in runner arguments.
type CoverageRecName string

// The paper's three coverage recommenders.
const (
	CRecDyn  CoverageRecName = "Dyn"
	CRecStat CoverageRecName = "Stat"
	CRecRand CoverageRecName = "Rand"
)

// coverageComponent builds a fresh coverage recommender (Dyn is stateful, so
// every GANC run gets its own).
func (s *Suite) coverageComponent(datasetName string, crec CoverageRecName) (core.CoverageRecommender, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, err
	}
	switch crec {
	case CRecDyn:
		return core.NewDynCoverage(sp.Train.NumItems()), nil
	case CRecStat:
		return core.NewStatCoverage(sp.Train), nil
	case CRecRand:
		return core.NewRandCoverage(s.Seed), nil
	default:
		return nil, fmt.Errorf("experiment: unknown coverage recommender %q", crec)
	}
}

// GANCSpec describes one GANC variant in the paper's template notation.
type GANCSpec struct {
	ARec       AccuracyRecName
	Theta      longtail.Model
	CRec       CoverageRecName
	N          int
	SampleSize int
}

// RunGANC assembles and runs a GANC variant, returning its recommendations
// and the instance's display name.
func (s *Suite) RunGANC(datasetName string, spec GANCSpec) (types.Recommendations, string, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	n := spec.N
	if n <= 0 {
		n = s.N
	}
	sample := spec.SampleSize
	if sample <= 0 {
		sample = s.SampleSize
	}
	arec, err := s.accuracyComponent(datasetName, spec.ARec, n)
	if err != nil {
		return nil, "", err
	}
	crec, err := s.coverageComponent(datasetName, spec.CRec)
	if err != nil {
		return nil, "", err
	}
	prefs, err := longtail.Estimate(spec.Theta, sp.Train, nil, 0.5, s.Seed)
	if err != nil {
		return nil, "", err
	}
	g, err := core.New(sp.Train, arec, prefs, crec, core.Config{N: n, SampleSize: sample, Seed: s.Seed, Workers: s.Workers})
	if err != nil {
		return nil, "", err
	}
	return g.Recommend(), g.Name(), nil
}

// Evaluator returns a metrics evaluator for the named dataset.
func (s *Suite) Evaluator(datasetName string) (*eval.Evaluator, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, err
	}
	return eval.NewEvaluator(sp, 0), nil
}

// --- Baseline collections ------------------------------------------------------

// BaselineName identifies a standalone top-N algorithm used in Figure 6 and
// the protocol study.
type BaselineName string

// The standalone baseline algorithms of the comparison studies.
const (
	BaselineRand    BaselineName = "Rand"
	BaselinePop     BaselineName = "Pop"
	BaselineRSVD    BaselineName = "RSVD"
	BaselineCofiR   BaselineName = "CofiR100"
	BaselinePSVD10  BaselineName = "PSVD10"
	BaselinePSVD100 BaselineName = "PSVD100"
)

// RunBaseline produces the top-N collection of a standalone algorithm under
// the all-unrated-items protocol.
func (s *Suite) RunBaseline(datasetName string, algo BaselineName, n int) (types.Recommendations, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		n = s.N
	}
	var scorer recommender.Scorer
	switch algo {
	case BaselineRand:
		// Rand samples its list directly instead of ranking random scores.
		return recommender.RecommendAll(recommender.NewRand(s.Seed), sp.Train, n), nil
	case BaselinePop:
		scorer = recommender.NewPop(sp.Train)
	case BaselineRSVD:
		scorer, err = s.RSVD(datasetName)
	case BaselineCofiR:
		scorer, err = s.CofiR(datasetName, 50)
	case BaselinePSVD10:
		scorer, err = s.PSVD(datasetName, 10)
	case BaselinePSVD100:
		scorer, err = s.PSVD(datasetName, 100)
	default:
		return nil, fmt.Errorf("experiment: unknown baseline %q", algo)
	}
	if err != nil {
		return nil, err
	}
	return recommender.RecommendAll(&recommender.ScorerTopN{Scorer: scorer}, sp.Train, n), nil
}

// RunReranker produces the top-N collection of one of the re-ranking
// baselines (Table IV rows) applied to the dataset's RSVD model.
func (s *Suite) RunReranker(datasetName, variant string, n int) (types.Recommendations, string, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	base, err := s.RSVD(datasetName)
	if err != nil {
		return nil, "", err
	}
	if n <= 0 {
		n = s.N
	}
	var model recommender.TopN
	switch variant {
	case "5D":
		model, err = rerank.NewFiveD(sp.Train, base, rerank.DefaultFiveDConfig(n))
	case "5D-A-RR":
		model, err = rerank.NewFiveD(sp.Train, base, rerank.FiveDConfig{N: n, Q: 1, AccuracyFilter: true, RankByRankings: true})
	case "RBT-Pop":
		model, err = rerank.NewRBT(sp.Train, base, rerank.DefaultRBTConfig(n, rerank.RBTPop))
	case "RBT-Avg":
		model, err = rerank.NewRBT(sp.Train, base, rerank.DefaultRBTConfig(n, rerank.RBTAvg))
	case "PRA-10":
		model, err = rerank.NewPRA(sp.Train, base, rerank.DefaultPRAConfig(n, 10))
	case "PRA-20":
		model, err = rerank.NewPRA(sp.Train, base, rerank.DefaultPRAConfig(n, 20))
	default:
		return nil, "", fmt.Errorf("experiment: unknown re-ranker variant %q", variant)
	}
	if err != nil {
		return nil, "", err
	}
	return recommender.RecommendAll(model, sp.Train, n), model.Name(), nil
}

// formatTable renders rows as a fixed-width text table with a header.
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for c, h := range header {
		widths[c] = len(h)
	}
	for _, row := range rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[c]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for c := range sep {
		sep[c] = strings.Repeat("-", widths[c])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}
