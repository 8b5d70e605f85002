package ganc

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

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
// snapshot-compatible (see Pipeline.Save), because every scenario system
// boots from its own snapshot and ingests over its own write-ahead log.
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

// RunScenario executes a scenario against the real stack. The primary keeps
// its snapshot and write-ahead log in dir, which must be fresh; the shadow,
// when the scenario compares against one, keeps its own in dir's "shadow"
// subdirectory. It is the one-call surface of the E2E suite and of loadgen's
// single-node runs: every assertion (warm-start parity, recovery
// equivalence, error-free serving under churn, graceful shedding under
// overload) is enforced by the runner and surfaces as an error.
func RunScenario(ctx context.Context, sc Scenario, dir string, cfg SimSystemConfig) (*ScenarioResult, error) {
	cfg = cfg.withDefaults()
	r := &simulate.Runner{
		NewSystem: func() simulate.System {
			return &pipelineSystem{cfg: cfg, dir: dir, checkpointEvery: sc.CheckpointEvery}
		},
		NewShadow: newShadowSystem(cfg, dir),
	}
	return r.Run(ctx, sc)
}

// newShadowSystem returns the factory of a scenario's shadow: a single node
// in dir's "shadow" subdirectory that checkpoints only when asked, since
// nothing ever restarts it.
func newShadowSystem(cfg SimSystemConfig, dir string) func() simulate.System {
	return func() simulate.System { return &pipelineSystem{cfg: cfg, dir: filepath.Join(dir, "shadow")} }
}

// pipelineSystem is the production binding of simulate.System: a Pipeline
// serving through serve.Server with an Ingestor behind it, booted from its
// own snapshot over its own write-ahead log — exactly the assembly gancd's
// standalone role stands up.
type pipelineSystem struct {
	cfg SimSystemConfig
	// dir holds the system's snapshot and write-ahead log; checkpointEvery
	// is its ingestion checkpoint cadence (0 = Checkpoint calls only).
	dir             string
	checkpointEvery int

	pipe *Pipeline
	srv  *Server
	ing  *Ingestor
}

// file names one of the system's durable files.
func (s *pipelineSystem) file(name string) string { return filepath.Join(s.dir, name) }

// Train implements simulate.System: train, write the snapshot, then boot from
// it — the way every deployment starts.
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
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	if err := p.Save(s.file("scenario.snap")); err != nil {
		return err
	}
	_, err = s.boot()
	return err
}

// boot serves the system's snapshot with ingestion behind it, then replays the
// write-ahead-log suffix past the snapshot's cursor, as gancd's standalone
// role does at start-up.
func (s *pipelineSystem) boot() (replayed int, err error) {
	p, err := LoadEngine(s.file("scenario.snap"))
	if err != nil {
		return 0, err
	}
	opts := []ServerOption{WithServerAdmission(s.cfg.Admission)}
	if s.cfg.CacheCapacity > 0 {
		opts = append(opts, WithServerCacheCapacity(s.cfg.CacheCapacity))
	}
	if s.cfg.Metrics {
		opts = append(opts, WithMetrics(NewMetricsRegistry()))
	}
	srv, err := NewServer(p.Train(), p, p.TopN(), opts...)
	if err != nil {
		return 0, err
	}
	ing, err := NewIngestor(srv, p,
		WithIngestLog(s.file("scenario.wal")),
		WithIngestCheckpoint(s.file("scenario.snap"), s.checkpointEvery))
	if err != nil {
		return 0, err
	}
	s.pipe, s.srv, s.ing = p, srv, ing
	return ing.Recover()
}

// Handler implements simulate.System.
func (s *pipelineSystem) Handler() (http.Handler, error) {
	if s.srv == nil {
		return nil, fmt.Errorf("ganc: scenario system is not serving (killed or untrained)")
	}
	return s.srv.Handler(), nil
}

// Checkpoint implements simulate.System: the ingestor's checkpoint into the
// snapshot Restart boots from.
func (s *pipelineSystem) Checkpoint() error {
	if s.ing == nil {
		return fmt.Errorf("ganc: cannot checkpoint a killed or untrained scenario system")
	}
	return s.ing.Checkpoint()
}

// Ingest implements simulate.System (the shadow's direct path).
func (s *pipelineSystem) Ingest(ctx context.Context, events []IngestEvent) error {
	if s.ing == nil {
		return fmt.Errorf("ganc: scenario system is not ingesting (killed or untrained)")
	}
	_, err := s.ing.Apply(ctx, events)
	return err
}

// Kill implements simulate.System: drop everything in memory and release the
// WAL handle; durable files survive for Restart.
func (s *pipelineSystem) Kill() error {
	var err error
	if s.ing != nil {
		err = s.ing.Close()
	}
	s.pipe, s.srv, s.ing = nil, nil, nil
	return err
}

// Restart implements simulate.System.
func (s *pipelineSystem) Restart() (int, error) {
	if err := s.Kill(); err != nil {
		return 0, err
	}
	return s.boot()
}

// Fingerprint implements simulate.System. The batch sweep mutates Dyn
// coverage state, so it never runs on the live pipeline: the sweep runs on a
// throwaway clone rebuilt from the current ingestion state, leaving serving
// untouched.
func (s *pipelineSystem) Fingerprint(ctx context.Context) ([]byte, error) {
	if s.pipe == nil {
		return nil, fmt.Errorf("ganc: cannot fingerprint a killed scenario system")
	}
	return fingerprintPipeline(ctx, s.pipe, s.ing, nil)
}

// fingerprintPipeline computes the canonical batch fingerprint of the state
// ing holds around p, sweeping a throwaway clone so serving state is never
// disturbed. A non-nil keep predicate restricts the fingerprint to the users
// it accepts — the shard-scoped form.
func fingerprintPipeline(ctx context.Context, p *Pipeline, ing *Ingestor, keep func(userKey string) bool) ([]byte, error) {
	kind, err := p.persistable()
	if err != nil {
		return nil, err
	}
	var clone *Pipeline
	var cloneErr error
	ing.View(func(st *ingest.State) {
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
