package ganc

import (
	"context"
	"fmt"
	"net/http"

	"ganc/internal/dataset"
	"ganc/internal/ingest"
	"ganc/internal/simulate"
)

// Simulation facade: deterministic synthetic universes, event/request stream
// generators, the closed-loop load driver and the scenario runner from
// internal/simulate, bound to the real Pipeline/Server/Ingestor stack. This
// is the entry point the E2E scenario suite and cmd/loadgen build on; see
// DESIGN.md §9 for the architecture.
type (
	// UniverseConfig describes a synthetic serving universe.
	UniverseConfig = simulate.UniverseConfig
	// Universe is a generated universe with deterministic stream samplers.
	Universe = simulate.Universe
	// EventStreamConfig shapes a deterministic interaction stream.
	EventStreamConfig = simulate.EventStreamConfig
	// RequestStreamConfig shapes a deterministic request stream.
	RequestStreamConfig = simulate.RequestStreamConfig
	// LoadConfig configures one closed-loop load run.
	LoadConfig = simulate.LoadConfig
	// LoadMix weights the traffic composition of a load run.
	LoadMix = simulate.LoadMix
	// LoadResult is the measurement of one load run.
	LoadResult = simulate.LoadResult
	// LatencyStats summarizes a latency distribution.
	LatencyStats = simulate.LatencyStats
	// BenchReport is the record of one bare load run (loadgen -url).
	BenchReport = simulate.BenchReport
	// Scenario is a system lifecycle expressed as a phase list.
	Scenario = simulate.Scenario
	// ScenarioPhase is one step of a Scenario.
	ScenarioPhase = simulate.Phase
	// ScenarioResult is the per-phase record of one scenario run.
	ScenarioResult = simulate.Result
)

// Scenario phase kinds, re-exported for scenario literals.
const (
	PhaseTrain          = simulate.PhaseTrain
	PhaseSave           = simulate.PhaseSave
	PhaseLoad           = simulate.PhaseLoad
	PhaseServeUnderLoad = simulate.PhaseServeUnderLoad
	PhaseIngestChurn    = simulate.PhaseIngestChurn
	PhaseKillAndRecover = simulate.PhaseKillAndRecover
	// PhaseOverload offers load beyond the system's admission capacity and
	// asserts graceful degradation: typed 429s, zero 5xx, bounded p99 for the
	// requests that were served. Requires a system built with admission
	// control (see SimSystemConfig.Admission).
	PhaseOverload = simulate.PhaseOverload
)

// NewUniverse generates a synthetic serving universe. Deterministic: the same
// configuration yields the byte-identical dataset and streams.
func NewUniverse(cfg UniverseConfig) (*Universe, error) { return simulate.NewUniverse(cfg) }

// RunLoad drives the closed-loop mixed-traffic driver against the server at
// cfg.BaseURL, generating requests from the universe's streams.
func RunLoad(ctx context.Context, u *Universe, cfg LoadConfig) (*LoadResult, error) {
	return simulate.RunLoad(ctx, u, cfg)
}

// WriteBenchReport writes a run's record (a BenchReport, or a scenario
// run's results) as indented JSON, atomically.
func WriteBenchReport(path string, rep interface{}) error {
	return simulate.WriteBenchReport(path, rep)
}

// SimSystemConfig describes the pipeline a scenario system assembles: a
// registry base, a θ model and the serving knobs. Every component must be
// snapshot-compatible (see Pipeline.Save) because scenarios exercise the
// persistence and ingestion lifecycles.
type SimSystemConfig struct {
	// Base is the registry base name (default "Pop", the cheapest to train).
	Base string
	// Theta selects the θ estimator (default PreferenceTFIDF: deterministic
	// and cheap at scale).
	Theta PreferenceModel
	// CacheCapacity bounds the serving LRU (0 = serving default).
	CacheCapacity int
	// Workers drives the pipeline's parallel phases (0 = sequential).
	Workers int
	// Seed drives training and θ estimation.
	Seed int64
	// Metrics mounts GET /metrics on the system's serving surface (a fresh
	// registry per served generation), so scenario phases can scrape and
	// validate the exposition mid-run.
	Metrics bool
	// Admission applies admission control (per-client rate limiting and/or a
	// concurrency cap) on the serving surface. The zero value disables it;
	// overload phases require it.
	Admission AdmissionConfig
}

// withDefaults fills the optional fields.
func (c SimSystemConfig) withDefaults() SimSystemConfig {
	if c.Base == "" {
		c.Base = "Pop"
	}
	if c.Theta == "" {
		c.Theta = PreferenceTFIDF
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RunScenario executes a scenario against the real stack, using dir for the
// snapshot and write-ahead-log files. It is the one-call surface of the E2E
// suite and of loadgen's single-node runs: every assertion (warm-start
// parity, recovery equivalence, error-free serving under churn, graceful
// shedding under overload) is enforced by the runner and surfaces as an
// error.
func RunScenario(ctx context.Context, sc Scenario, dir string, cfg SimSystemConfig) (*ScenarioResult, error) {
	r := &simulate.Runner{
		NewSystem: func() simulate.System { return &pipelineSystem{cfg: cfg.withDefaults()} },
		Dir:       dir,
	}
	return r.Run(ctx, sc)
}

// pipelineSystem is the production binding of simulate.System: a Pipeline
// serving through serve.Server, persisted with Pipeline.Save/LoadEngine and
// ingesting through NewIngestor — exactly the assembly gancd's standalone role
// stands up.
type pipelineSystem struct {
	cfg  SimSystemConfig
	topN int

	pipe *Pipeline
	srv  *Server
	ing  *Ingestor

	// Ingestion wiring survives Kill so Recover can re-attach it.
	ingestEnabled   bool
	logPath         string
	checkpointPath  string
	checkpointEvery int
}

// Train implements simulate.System.
func (s *pipelineSystem) Train(train *dataset.Dataset, topN int) error {
	p, err := NewPipeline(train,
		WithBaseNamed(s.cfg.Base),
		WithPreferences(s.cfg.Theta),
		WithTopN(topN),
		WithWorkers(s.cfg.Workers),
		WithSeed(s.cfg.Seed))
	if err != nil {
		return err
	}
	s.pipe, s.topN = p, topN
	return s.serve()
}

// serve stands the HTTP layer up around the current pipeline.
func (s *pipelineSystem) serve() error {
	opts := []ServerOption{WithServerAdmission(s.cfg.Admission)}
	if s.cfg.CacheCapacity > 0 {
		opts = append(opts, WithServerCacheCapacity(s.cfg.CacheCapacity))
	}
	if s.cfg.Metrics {
		opts = append(opts, WithMetrics(NewMetricsRegistry()))
	}
	srv, err := NewServer(s.pipe.Train(), s.pipe, s.topN, opts...)
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// Handler implements simulate.System.
func (s *pipelineSystem) Handler() (http.Handler, error) {
	if s.srv == nil {
		return nil, fmt.Errorf("ganc: scenario system is not serving (killed or untrained)")
	}
	return s.srv.Handler(), nil
}

// Save implements simulate.System.
func (s *pipelineSystem) Save(path string) error {
	if s.pipe == nil {
		return fmt.Errorf("ganc: scenario system has no pipeline to save")
	}
	return s.pipe.Save(path)
}

// Load implements simulate.System: restore the snapshot and serve it, exactly
// like a warm-started process — including re-attaching ingestion when it was
// enabled, so a reloaded system keeps accepting events (Recover then replays
// any write-ahead-log suffix past the restored cursor).
func (s *pipelineSystem) Load(path string) error {
	p, err := LoadEngine(path)
	if err != nil {
		return err
	}
	if s.ing != nil {
		// Release the old WAL handle before the successor reopens it.
		if err := s.ing.Close(); err != nil {
			return err
		}
		s.ing = nil
	}
	s.pipe = p
	s.topN = p.TopN()
	if err := s.serve(); err != nil {
		return err
	}
	if s.ingestEnabled {
		return s.attachIngest()
	}
	return nil
}

// EnableIngest implements simulate.System.
func (s *pipelineSystem) EnableIngest(logPath, checkpointPath string, every int) error {
	s.ingestEnabled = true
	s.logPath, s.checkpointPath, s.checkpointEvery = logPath, checkpointPath, every
	return s.attachIngest()
}

// attachIngest wires an ingestor around the current pipeline/server pair.
func (s *pipelineSystem) attachIngest() error {
	if s.pipe == nil {
		return fmt.Errorf("ganc: cannot enable ingestion before training")
	}
	opts := []IngestorOption{}
	if s.logPath != "" {
		opts = append(opts, WithIngestLog(s.logPath))
	}
	if s.checkpointPath != "" {
		opts = append(opts, WithIngestCheckpoint(s.checkpointPath, s.checkpointEvery))
	}
	ing, err := NewIngestor(s.srv, s.pipe, opts...)
	if err != nil {
		return err
	}
	s.ing = ing
	return nil
}

// Ingest implements simulate.System (the shadow's direct path).
func (s *pipelineSystem) Ingest(ctx context.Context, events []IngestEvent) error {
	if s.ing == nil {
		return fmt.Errorf("ganc: ingestion is not enabled on this scenario system")
	}
	_, err := s.ing.Apply(ctx, events)
	return err
}

// Recover implements simulate.System: after Load, re-attach ingestion and
// replay the write-ahead-log suffix past the checkpoint cursor.
func (s *pipelineSystem) Recover() (int, error) {
	if !s.ingestEnabled {
		return 0, nil
	}
	if s.ing == nil {
		if err := s.attachIngest(); err != nil {
			return 0, err
		}
	}
	return s.ing.Recover()
}

// Kill implements simulate.System: drop everything in memory and release the
// WAL handle; durable files survive for Load/Recover.
func (s *pipelineSystem) Kill() error {
	var err error
	if s.ing != nil {
		err = s.ing.Close()
	}
	s.pipe, s.srv, s.ing = nil, nil, nil
	return err
}

// Fingerprint implements simulate.System. The batch sweep mutates Dyn
// coverage state, so it never runs on the live pipeline: the sweep runs on a
// throwaway clone rebuilt from the current ingestion state (or an equivalent
// fresh state for systems that never ingested), leaving serving untouched.
func (s *pipelineSystem) Fingerprint(ctx context.Context) ([]byte, error) {
	if s.pipe == nil {
		return nil, fmt.Errorf("ganc: cannot fingerprint a killed scenario system")
	}
	return fingerprintPipeline(ctx, s.pipe, s.ing, nil)
}

// fingerprintPipeline computes the canonical batch fingerprint of a
// pipeline's current state (live ingestor state when ing is non-nil, an
// equivalent fresh view otherwise), sweeping a throwaway clone so serving
// state is never disturbed. A non-nil keep predicate restricts the
// fingerprint to the users it accepts — the shard-scoped form.
func fingerprintPipeline(ctx context.Context, p *Pipeline, ing *Ingestor, keep func(userKey string) bool) ([]byte, error) {
	kind, err := p.persistable()
	if err != nil {
		return nil, err
	}
	viewIng := ing
	if viewIng == nil {
		// No live ingestor: derive a state view the same way NewIngestor
		// would, without attaching anything to the server.
		viewIng, err = NewIngestor(nil, p)
		if err != nil {
			return nil, err
		}
	}
	var clone *Pipeline
	var cloneErr error
	viewIng.View(func(st *ingest.State) {
		clone, cloneErr = p.pipelineFromState(kind, st)
	})
	if cloneErr != nil {
		return nil, cloneErr
	}
	recs, err := clone.RecommendAll(ctx)
	if err != nil {
		return nil, err
	}
	fp := simulate.CanonicalRecommendations(clone.Train(), recs)
	if keep == nil {
		return fp, nil
	}
	return simulate.FilterCanonical(fp, keep), nil
}
