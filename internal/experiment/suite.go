// Package experiment is the reproduction harness: it wires the synthetic
// calibrated datasets and the models it trains once per dataset into runners
// that regenerate every table and figure of the paper's evaluation (Section
// IV, Section V and Appendix C). It is a client of the ganc facade: a GANC
// variant is a ganc.NewPipeline, a re-ranking baseline a ganc.NewReranker, a
// standalone baseline a ganc.NewBaseEngine — the pipeline the tables are
// printed from is the one the library serves. Each runner returns both a
// structured result (for tests) and a formatted text block (what
// `go run ./cmd/experiments` prints).
package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ganc"
	"ganc/internal/dataset"
	"ganc/internal/eval"
	"ganc/internal/longtail"
	"ganc/internal/mf"
	"ganc/internal/rank"
	"ganc/internal/recommender"
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
	// byte-identical for any worker count — the golden tests in
	// cmd/experiments pin this at 1 and 8.
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

// Split returns the train/test split for the named dataset, generating and
// caching it on first use. The configuration and the split ratio κ are the
// preset's row of synth's table.
func (s *Suite) Split(name string) (*dataset.Split, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.splits[name]; ok {
		return sp, nil
	}
	cfg, kappa, err := synth.Preset(name, s.Scale)
	if err != nil {
		return nil, err
	}
	d, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: generate %s: %w", name, err)
	}
	sp := d.SplitByUser(kappa, rand.New(rand.NewSource(s.Seed)))
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

// --- GANC runs --------------------------------------------------------------------

// AccuracyRecName identifies a base accuracy recommender in runner arguments.
type AccuracyRecName string

// The accuracy recommenders the experiment suite assembles GANC around.
const (
	ARecPop     AccuracyRecName = "Pop"
	ARecRSVD    AccuracyRecName = "RSVD"
	ARecPSVD10  AccuracyRecName = "PSVD10"
	ARecPSVD100 AccuracyRecName = "PSVD100"
)

// accuracyScorer returns the suite's model behind an accuracy recommender
// name: Pop, or the dataset's cached RSVD or PSVD.
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

// GANCSpec describes one GANC variant in the paper's template notation.
type GANCSpec struct {
	ARec  AccuracyRecName
	Theta longtail.Model
	// CRec is the coverage recommender, e.g. ganc.CoverageDyn().
	CRec ganc.CoverageSpec
	// N and SampleSize default to the suite's when not positive.
	N          int
	SampleSize int
}

// RunGANC assembles a GANC variant around the suite's model for spec.ARec and
// runs its batch sweep, returning the recommendations and the pipeline's
// display name.
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
	base, err := s.accuracyScorer(datasetName, spec.ARec)
	if err != nil {
		return nil, "", err
	}
	p, err := ganc.NewPipeline(sp.Train,
		ganc.WithBase(base),
		ganc.WithPreferences(spec.Theta),
		ganc.WithCoverage(spec.CRec),
		ganc.WithTopN(n),
		ganc.WithSampleSize(sample),
		ganc.WithSeed(s.Seed),
		ganc.WithWorkers(s.Workers))
	if err != nil {
		return nil, "", err
	}
	recs, err := p.RecommendAll(context.Background())
	return recs, p.Name(), err
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
	return ganc.NewBaseEngine(scorer, sp.Train, n).RecommendAll(context.Background())
}

// RunReranker produces the top-N collection of a re-ranking baseline, named
// as the facade's registry names it (ganc.RerankerNames), applied to the
// suite's model for base.
func (s *Suite) RunReranker(datasetName string, base AccuracyRecName, variant string, n int) (types.Recommendations, string, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	scorer, err := s.accuracyScorer(datasetName, base)
	if err != nil {
		return nil, "", err
	}
	if n <= 0 {
		n = s.N
	}
	e, err := ganc.NewReranker(variant, sp.Train, scorer, n, s.Seed)
	if err != nil {
		return nil, "", err
	}
	recs, err := e.RecommendAll(context.Background())
	return recs, e.Name(), err
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
