package ganc

import (
	"fmt"

	"ganc/internal/core"
	"ganc/internal/ingest"
	"ganc/internal/knn"
	"ganc/internal/recommender"
	"ganc/internal/serve"
)

// Streaming-ingestion facade: NewIngestor puts a Pipeline's state behind the
// internal/ingest consumer, so POST /ingest events (or direct Apply calls)
// update the served model incrementally — popularity counts, item-average
// sums, the dataset adjacency and the Dyn coverage frequencies — and publish
// each batch through the server's versioned atomic engine swap. Trained
// factor models stay frozen between full retrains (warm-start semantics);
// everything derived cheaply from counts is rebuilt per batch.

// IngestEvent is one interaction event, keyed by external identifiers. New
// users and items are interned on the fly.
type IngestEvent = serve.IngestEvent

// IngestResult summarizes one applied batch (events absorbed, sequence
// cursor, serving engine version).
type IngestResult = serve.IngestResult

// Ingestor consumes interaction events behind the serving layer; construct
// with NewIngestor. See internal/ingest for the full contract.
type Ingestor = ingest.Ingestor

// IngestorOption customizes an Ingestor at construction time.
type IngestorOption func(*ingestorConfig)

type ingestorConfig struct {
	logPath         string
	checkpointPath  string
	checkpointEvery int
	// onCommit runs after every committed batch — live Apply and
	// write-ahead-log Recover replay alike — with the sequence number of the
	// batch's first event, under the ingestor's lock (it must not call back
	// into the ingestor). Only ShardNode sets it, to ship committed batches
	// to replicas.
	onCommit func(firstSeq uint64, events []IngestEvent)
}

// WithIngestLog makes the write path write-ahead: events are appended and
// fsynced to the JSON-lines log at path before they touch serving state, and
// recovery replays the un-checkpointed suffix after a restart.
func WithIngestLog(path string) IngestorOption {
	return func(c *ingestorConfig) { c.logPath = path }
}

// WithIngestCheckpoint writes a full warm-start snapshot (the Pipeline.Save
// format plus the ingestion cursor) to path after every `every` applied
// events; every ≤ 0 disables automatic checkpoints but keeps manual
// Ingestor.Checkpoint calls working.
func WithIngestCheckpoint(path string, every int) IngestorOption {
	return func(c *ingestorConfig) {
		c.checkpointPath = path
		c.checkpointEvery = every
	}
}

// NewIngestor wires streaming ingestion around a pipeline and, when srv is
// non-nil, attaches itself as the sink behind the server's POST /ingest
// endpoint. The pipeline must be snapshot-compatible (see Pipeline.Save);
// for a pipeline restored by LoadEngine from a checkpoint, the ingestion
// cursor carries over, so calling (*Ingestor).Recover() afterwards replays
// exactly the write-ahead-log suffix the checkpoint had not absorbed.
func NewIngestor(srv *Server, p *Pipeline, opts ...IngestorOption) (*Ingestor, error) {
	var c ingestorConfig
	for _, opt := range opts {
		opt(&c)
	}
	ing, err := newIngestor(srv, p, c)
	if err == nil && srv != nil {
		srv.SetIngestSink(ing)
	}
	return ing, err
}

// newIngestor builds the ingestor without attaching it behind the server's
// POST /ingest endpoint — what a ShardNode needs, whose role decides whether
// client writes are legal (a replica that accepted them would fork its
// shard's history from the primary's write-ahead log).
func newIngestor(srv *Server, p *Pipeline, c ingestorConfig) (*Ingestor, error) {
	kind, err := p.baseKind()
	if err != nil {
		return nil, err
	}
	covName, err := p.coverageName()
	if err != nil {
		return nil, err
	}

	lambda := p.ingestAvgLambda
	if lambda == 0 {
		if ia, ok := p.baseScorer.(*recommender.ItemAvg); ok {
			lambda = ia.Lambda()
		} else {
			lambda = 5 // the registry's ItemAvg shrinkage default
		}
	}
	state := ingest.NewStateFromDataset(p.train, p.prefs, lambda)
	if p.ingestPrefFill > 0 {
		state.PrefFill = p.ingestPrefFill
	}
	if dyn, ok := p.crec.(*core.DynCoverage); ok {
		state.DynFreq = dyn.Frequencies()
	}
	state.AppliedSeq = p.ingestSeq

	cfg := ingest.Config{
		State: state,
		Rebuild: func(s *ingest.State) (serve.Engine, error) {
			return p.pipelineFromState(kind, covName, s)
		},
		Server:   srv,
		OnCommit: c.onCommit,
	}
	if c.logPath != "" {
		log, err := ingest.OpenLog(c.logPath)
		if err != nil {
			return nil, err
		}
		cfg.Log = log
	}
	if c.checkpointPath != "" {
		path := c.checkpointPath
		cfg.Checkpoint = func(s *ingest.State) error {
			np, err := p.pipelineFromState(kind, covName, s)
			if err != nil {
				return err
			}
			b, err := np.snapshotBuilder(s.AppliedSeq, s.AvgLambda, s.PrefFill)
			if err != nil {
				return err
			}
			return b.Save(path)
		}
		cfg.CheckpointEvery = c.checkpointEvery
	}
	return ingest.New(cfg)
}

// pipelineFromState reassembles a serving pipeline around the ingestion
// state: incrementally maintained statistics rebuild the cheap components
// (Pop counts, ItemAvg means, Stat/Dyn coverage, PopAccuracy), while trained
// factor models are reused frozen — ItemKNN rebound so its scoring consults
// the extended user profiles. What a frozen factor model determines is
// carried over, not rebuilt: its normaliser keeps p's per-user range table
// (see frozenAccuracy), so a batch costs a user nothing they already paid —
// and around such a model the pipeline is a serve.Revalidator, so neither
// does a batch cost a cached list it did not touch (see Revalidate).
func (p *Pipeline) pipelineFromState(kind, covName string, s *ingest.State) (*Pipeline, error) {
	train := s.Train
	var lineage *serve.Lineage
	var lastNamed []uint64
	normalized := func(sc Scorer) AccuracyRecommender {
		return newNormalizedAccuracy(sc, train.NumItems())
	}
	var arec AccuracyRecommender
	var scorer Scorer
	switch kind {
	case "Pop":
		pop := recommender.NewPopFromCounts(s.PopCounts)
		arec = core.NewPopAccuracyWith(pop, train, p.cfg.topN)
		scorer = pop
	case "ItemAvg":
		ia := recommender.NewItemAvgFromStats(s.AvgSums, s.AvgCounts, s.AvgLambda, s.GlobalMean())
		arec, scorer = normalized(ia), ia
	case "ItemKNN":
		m := p.baseScorer.(*knn.ItemKNN).Rebind(train)
		arec, scorer = normalized(m), m
	case "RSVD", "PSVD", "CofiRank":
		scorer = p.baseScorer
		arec = p.frozenAccuracy(train.NumItems())
		// The state keeps writing its vector; the engine needs it as of this
		// cursor.
		lineage, lastNamed = s.Lineage, append([]uint64(nil), s.LastNamed...)
	default:
		return nil, fmt.Errorf("%w: base kind %q", ErrSnapshotUnsupported, kind)
	}

	var crec CoverageRecommender
	var covSpec CoverageSpec
	switch covName {
	case "Dyn":
		crec = core.NewDynCoverageFrom(s.DynFreq)
		covSpec = CoverageDyn()
	case "Stat":
		crec = core.NewStatCoverageFromCounts(s.PopCounts)
		covSpec = CoverageStat()
	default:
		return nil, fmt.Errorf("%w: coverage recommender %q", ErrSnapshotUnsupported, covName)
	}

	g, err := core.New(train, arec, s.Prefs, crec, core.Config{
		N:          p.cfg.topN,
		SampleSize: p.cfg.sampleSize,
		Seed:       p.cfg.seed,
		Workers:    p.cfg.workers,
		Precision:  p.cfg.precision,
	})
	if err != nil {
		return nil, err
	}
	cfg := p.cfg
	cfg.coverage = covSpec
	return &Pipeline{
		train:           train,
		ganc:            g,
		prefs:           s.Prefs,
		cfg:             cfg,
		arec:            arec,
		baseScorer:      scorer,
		crec:            crec,
		ingestSeq:       s.AppliedSeq,
		ingestPrefFill:  s.PrefFill,
		ingestAvgLambda: s.AvgLambda,
		lineage:         lineage,
		lastNamed:       lastNamed,
		shard:           p.shard,
	}, nil
}

// Mark implements serve.Revalidator: the pipeline's ingestion state and
// cursor, and the catalog it ranks. A pipeline not rebuilt from an ingestion
// state around a frozen factor model has no lineage.
func (p *Pipeline) Mark() serve.Mark {
	return serve.Mark{Lineage: p.lineage, Seq: p.ingestSeq, Items: p.train.NumItems()}
}

// Revalidate implements serve.Revalidator: it reports whether list, computed
// for u by a pipeline of this lineage at the earlier mark from, is exactly
// what RecommendUser(u, n) returns now, without ranking the catalog. Between
// the two marks only appended events happened, and around a frozen factor
// model with Dyn or Stat coverage an event moves one thing a gain reads: the
// coverage counter of the item it names, upwards (θ, the factors and the
// adjacency of everyone else stay; the item leaves its rater's pool). So:
//
//	(i)   no item of the list was named after from.Seq — the list's items are
//	      still candidates, with the counters they had;
//	(ii)  the new items [from.Items, numItems) did not widen u's min–max range,
//	      so every old item's accuracy score is bit for bit what it was;
//	(iii) none of the new items out-ranks the list's last item.
//
// Then the list's gains are unchanged, every other old candidate's gain is
// unchanged or — named, its counter higher — no larger (1/√(f+1) and every
// rounding step after it are monotone), and every new candidate ranks below
// the list: the strict total order the selection sorts by returns the same n
// items in the same order. (ii) and (iii) are core.SurvivesGrowth; a catalog
// that did not grow needs neither. A list shorter than n took every candidate
// there was, so any new item would join it.
func (p *Pipeline) Revalidate(u UserID, list TopNSet, n int, from serve.Mark) serve.Revalidation {
	for _, i := range list {
		if p.lastNamed[i] > from.Seq {
			return serve.RevalItemNamed
		}
	}
	if from.Items == p.train.NumItems() {
		return serve.RevalKept
	}
	if len(list) < n || !p.ganc.SurvivesGrowth(u, list, from.Items) {
		return serve.RevalCatalog
	}
	return serve.RevalKept
}

// frozenAccuracy is the accuracy component of a frozen factor model's next
// generation: p's own normaliser re-aimed at the grown catalog, so the range
// table it has filled survives the swap. ItemKNN (rebound per batch) and
// Pop/ItemAvg (their statistics move) cannot share one and get a fresh
// normaliser, as does a pipeline whose accuracy component is not the
// normaliser (a registry entry with a custom adaptation).
func (p *Pipeline) frozenAccuracy(numItems int) AccuracyRecommender {
	if sa, ok := p.arec.(*core.ScorerAccuracy); ok {
		if norm, ok := sa.Scorer.(*recommender.NormalizedScorer); ok {
			return &core.ScorerAccuracy{Scorer: norm.ForCatalog(numItems)}
		}
	}
	return newNormalizedAccuracy(p.baseScorer, numItems)
}
