package ganc

import (
	"context"
	"fmt"

	"ganc/internal/core"
	"ganc/internal/longtail"
	"ganc/internal/serve"
)

// Pipeline is the one-call assembly surface of the library. It validates and
// wires the train set, an accuracy recommender, a θ estimator, a coverage
// recommender and the GANC configuration together, replacing the old
// AccuracyFrom*/EstimatePreferences/NewGANC multi-step dance:
//
//	p, err := ganc.NewPipeline(train,
//	        ganc.WithBase(rsvd),
//	        ganc.WithPreferences(ganc.PreferenceGeneralized),
//	        ganc.WithCoverage(ganc.CoverageDyn()),
//	        ganc.WithTopN(20))
//
// A Pipeline is itself an Engine: it answers single-user requests online
// (RecommendUser) and batch sweeps (RecommendAll) through the assembled GANC
// instance.
type Pipeline struct {
	train *Dataset
	ganc  *GANC
	prefs *Preferences
	cfg   pipelineConfig

	// Handles to the assembled components, retained so the persistence layer
	// (Pipeline.Save) and the streaming-ingestion rebuild path can reach them
	// without reaching into the core instance: the accuracy component, the
	// raw base scorer behind it (nil only for WithAccuracy's fully custom
	// recommenders) and the coverage recommender cfg.coverage built.
	arec       AccuracyRecommender
	baseScorer Scorer
	crec       CoverageRecommender

	// ingestSeq is the applied-event cursor carried by a loaded checkpoint
	// snapshot (zero for cold-built pipelines); NewIngestor seeds its state
	// with it so write-ahead-log recovery replays only the un-checkpointed
	// suffix. ingestPrefFill carries the θ new users get, so a restored
	// stream treats them exactly as the uninterrupted one would have.
	ingestSeq      uint64
	ingestPrefFill float64

	// lineage makes the pipeline a serve.Revalidator (see Revalidate): the
	// ingestion state it was rebuilt from, whose history up to ingestSeq the
	// tail of train holds. Only pipelineFromState sets it, and only around a
	// frozen factor model; every other pipeline has none and its lists are
	// never carried across a swap.
	lineage *serve.Lineage

	// shard is the cluster identity of a shard-scoped pipeline (nil for
	// single-node pipelines). It is written by SaveShard, restored by
	// LoadShardEngine, and carried through ingestion rebuilds so shard
	// checkpoints keep their identity.
	shard *ShardIdentity
}

// prefConstant is the θ^C constant the PreferenceConstant estimator assigns
// every user — the paper's 0.5 (a constant of 0 would degenerate GANC to pure
// accuracy). It is also what a snapshot's meta section records.
const prefConstant = 0.5

type pipelineConfig struct {
	baseName   string
	scorer     Scorer
	accuracy   AccuracyRecommender
	prefModel  PreferenceModel
	prefVector *Preferences
	coverage   CoverageSpec
	topN       int
	sampleSize int
	workers    int
	seed       int64
}

// PipelineOption customizes a Pipeline at construction time.
type PipelineOption func(*pipelineConfig)

// WithBase selects a pre-trained Scorer as the accuracy component. A model
// whose type has a custom accuracy adaptation (the library's Pop, whose
// paper-faithful form is the indicator-style top-N membership) enters the
// value function through it; any other scorer, whatever its Name, has its
// scores min–max normalized per user to [0,1] first, as the paper does with
// RSVD and PSVD predictions. Exactly one of WithBase, WithBaseNamed or
// WithAccuracy must be given.
func WithBase(s Scorer) PipelineOption {
	return func(c *pipelineConfig) { c.scorer = s }
}

// WithBaseNamed trains the named registry model (see BaseNames) and selects
// it exactly as WithBase would: WithBaseNamed("Pop") and WithBase(NewPop(train))
// assemble the same pipeline.
func WithBaseNamed(name string) PipelineOption {
	return func(c *pipelineConfig) { c.baseName = name }
}

// WithAccuracy plugs in a fully custom accuracy recommender.
func WithAccuracy(a AccuracyRecommender) PipelineOption {
	return func(c *pipelineConfig) { c.accuracy = a }
}

// WithPreferences selects the long-tail preference estimator θ (default:
// PreferenceGeneralized, the paper's learned θ^G).
func WithPreferences(m PreferenceModel) PipelineOption {
	return func(c *pipelineConfig) { c.prefModel = m }
}

// WithPreferenceVector bypasses θ estimation entirely and uses the supplied
// per-user vector (ablation studies, precomputed preferences).
func WithPreferenceVector(p *Preferences) PipelineOption {
	return func(c *pipelineConfig) { c.prefVector = p }
}

// WithCoverage selects the coverage recommender (default: CoverageDyn()).
func WithCoverage(spec CoverageSpec) PipelineOption {
	return func(c *pipelineConfig) { c.coverage = spec }
}

// WithTopN sets the recommendation list size N (default 10).
func WithTopN(n int) PipelineOption {
	return func(c *pipelineConfig) { c.topN = n }
}

// WithSampleSize sets the OSLG sample size S; 0 (the default) runs the fully
// sequential locally greedy algorithm. Only meaningful with CoverageDyn.
func WithSampleSize(s int) PipelineOption {
	return func(c *pipelineConfig) { c.sampleSize = s }
}

// WithWorkers sets the goroutine count for GANC's parallel phases (default 1,
// fully deterministic sequential execution; values above GOMAXPROCS are
// clamped to it). RecommendAll shards the user space into contiguous ranges,
// one range and one reusable sweep scratch per worker; outputs are identical
// for any worker count: the per-user sweeps are independent (DESIGN.md §7),
// and CoverageRand, whose scores depend on the order users are swept in,
// sweeps on one worker whatever this says (DESIGN.md §6).
func WithWorkers(w int) PipelineOption {
	return func(c *pipelineConfig) { c.workers = w }
}

// WithSeed sets the random seed shared by the θ estimator, the KDE sampler
// and any randomized component (default 1).
func WithSeed(seed int64) PipelineOption {
	return func(c *pipelineConfig) { c.seed = seed }
}

// CoverageSpec is a deferred coverage-recommender constructor: the pipeline
// resolves it against the train set during assembly, so callers no longer
// thread catalog sizes through by hand. It is also everything the facade
// knows about a coverage recommender: its snapshot spelling and how a loaded
// snapshot or an ingested batch brings it back.
type CoverageSpec struct {
	name  string
	build func(train *Dataset, seed int64) CoverageRecommender
	// restore rebuilds the recommender from persisted or ingested state: the
	// accumulated Dyn frequencies (nil when the saved recommender kept none)
	// and the train set. nil for Rand, whose shared rng state is consumed in
	// evaluation order: a restore could not reproduce the saved engine's
	// behaviour, so such a pipeline is neither saved nor ingested into.
	restore func(dynFreq []int, train *Dataset) (CoverageRecommender, error)
}

// CoverageDyn selects the dynamic coverage recommender c(i) = 1/√(f_i^A + 1),
// the paper's submodular default.
func CoverageDyn() CoverageSpec {
	return CoverageSpec{
		name: "Dyn",
		build: func(train *Dataset, _ int64) CoverageRecommender {
			return core.NewDynCoverage(train.NumItems())
		},
		restore: func(dynFreq []int, train *Dataset) (CoverageRecommender, error) {
			if len(dynFreq) != train.NumItems() {
				return nil, fmt.Errorf("ganc: Dyn frequencies cover %d items but the dataset has %d",
					len(dynFreq), train.NumItems())
			}
			return core.NewDynCoverageFrom(dynFreq), nil
		},
	}
}

// CoverageStat selects the static popularity-based coverage recommender
// c(i) = 1/√(f_i^R + 1).
func CoverageStat() CoverageSpec {
	return CoverageSpec{
		name: "Stat",
		build: func(train *Dataset, _ int64) CoverageRecommender {
			return core.NewStatCoverage(train)
		},
		restore: func(_ []int, train *Dataset) (CoverageRecommender, error) {
			return core.NewStatCoverage(train), nil
		},
	}
}

// CoverageRand selects the uniform-random coverage recommender, seeded from
// the pipeline seed.
func CoverageRand() CoverageSpec {
	return CoverageSpec{name: "Rand", build: func(_ *Dataset, seed int64) CoverageRecommender {
		return core.NewRandCoverage(seed)
	}}
}

// coverageSpecs is every coverage recommender, in the order usage strings
// list them.
func coverageSpecs() []CoverageSpec {
	return []CoverageSpec{CoverageDyn(), CoverageStat(), CoverageRand()}
}

// CoverageNames lists the coverage recommenders ParseCoverage resolves.
func CoverageNames() []string {
	var names []string
	for _, spec := range coverageSpecs() {
		names = append(names, spec.name)
	}
	return names
}

// ParseCoverage resolves a coverage recommender by the name CLIs and
// snapshots spell it with (see CoverageNames).
func ParseCoverage(name string) (CoverageSpec, error) {
	for _, spec := range coverageSpecs() {
		if spec.name == name {
			return spec, nil
		}
	}
	return CoverageSpec{}, fmt.Errorf("ganc: unknown coverage recommender %q (known: %v)", name, CoverageNames())
}

// NewPipeline validates and assembles a complete GANC pipeline in one call.
// The only required choice is the accuracy component (exactly one of
// WithBase, WithBaseNamed or WithAccuracy); everything else has the paper's
// defaults: θ^G preferences, Dyn coverage, N=10, fully sequential OSLG.
func NewPipeline(train *Dataset, opts ...PipelineOption) (*Pipeline, error) {
	if train == nil {
		return nil, fmt.Errorf("ganc: pipeline requires a train dataset")
	}
	if train.NumUsers() == 0 || train.NumItems() == 0 {
		return nil, fmt.Errorf("ganc: pipeline requires a non-empty train dataset, got %d users × %d items",
			train.NumUsers(), train.NumItems())
	}
	cfg := pipelineConfig{
		prefModel: PreferenceGeneralized,
		coverage:  CoverageDyn(),
		topN:      10,
		workers:   1,
		seed:      1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}

	if cfg.topN <= 0 {
		return nil, fmt.Errorf("ganc: top-N must be positive, got %d", cfg.topN)
	}
	if cfg.sampleSize < 0 {
		return nil, fmt.Errorf("ganc: OSLG sample size must be ≥ 0, got %d", cfg.sampleSize)
	}
	if cfg.coverage.build == nil {
		return nil, fmt.Errorf("ganc: coverage spec %q has no constructor", cfg.coverage.name)
	}

	sources := 0
	if cfg.scorer != nil {
		sources++
	}
	if cfg.baseName != "" {
		sources++
	}
	if cfg.accuracy != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("ganc: exactly one of WithBase, WithBaseNamed or WithAccuracy is required (got %d)", sources)
	}

	scorer := cfg.scorer
	var err error
	if cfg.baseName != "" {
		if scorer, err = NewBaseScorer(cfg.baseName, train, cfg.seed); err != nil {
			return nil, err
		}
	}
	arec := cfg.accuracy
	if scorer != nil {
		arec = accuracyFor(kindOf(scorer), scorer, train, cfg.topN)
	}

	prefs := cfg.prefVector
	if prefs == nil {
		prefs, err = longtail.Estimate(cfg.prefModel, train, nil, prefConstant, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("ganc: estimating θ preferences: %w", err)
		}
	}
	return assemble(Pipeline{
		train:      train,
		prefs:      prefs,
		cfg:        cfg,
		arec:       arec,
		baseScorer: scorer,
		crec:       cfg.coverage.build(train, cfg.seed),
	})
}

// assemble is the one place a Pipeline is built: NewPipeline, LoadEngine and
// the ingestion rebuild fill in the train set, θ, the configuration, the base
// scorer with its accuracy component and the coverage recommender, and
// assemble wires the core instance.
func assemble(p Pipeline) (*Pipeline, error) {
	g, err := core.New(p.train, p.arec, p.prefs, p.crec, core.Config{
		N:          p.cfg.topN,
		SampleSize: p.cfg.sampleSize,
		Seed:       p.cfg.seed,
		Workers:    p.cfg.workers,
	})
	if err != nil {
		return nil, err
	}
	p.ganc = g
	return &p, nil
}

// Name returns the paper-style template string GANC(ARec, θ, CRec).
func (p *Pipeline) Name() string { return p.ganc.Name() }

// TopN returns the configured list size.
func (p *Pipeline) TopN() int { return p.cfg.topN }

// Train returns the train set the pipeline was assembled against.
func (p *Pipeline) Train() *Dataset { return p.train }

// Preferences returns the estimated per-user θ vector.
func (p *Pipeline) Preferences() *Preferences { return p.prefs }

// GANC returns the assembled core instance for callers that need the
// lower-level surface (e.g. ValueOf in ablation studies).
func (p *Pipeline) GANC() *GANC { return p.ganc }

// Shard returns the pipeline's cluster identity, or nil for single-node
// pipelines (see SaveShard/LoadShardEngine).
func (p *Pipeline) Shard() *ShardIdentity {
	if p.shard == nil {
		return nil
	}
	id := *p.shard
	return &id
}

// RecommendUser implements Engine: one user's list, computed on demand
// against a frozen snapshot of the coverage state. Safe for concurrent use.
func (p *Pipeline) RecommendUser(ctx context.Context, u UserID, n int) (TopNSet, error) {
	return p.ganc.RecommendUser(ctx, u, n)
}

// RecommendAll implements Engine: the full batch collection (OSLG for Dyn
// coverage, independent greedy sweeps otherwise).
func (p *Pipeline) RecommendAll(ctx context.Context) (Recommendations, error) {
	return p.ganc.RecommendAll(ctx)
}
