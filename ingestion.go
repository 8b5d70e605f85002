package ganc

import (
	"ganc/internal/core"
	"ganc/internal/ingest"
	"ganc/internal/recommender"
	"ganc/internal/serve"
)

// Streaming-ingestion facade: NewIngestor puts a Pipeline's state behind the
// internal/ingest consumer, so POST /ingest events (or direct Apply calls)
// update the served model incrementally — the extended train set, whose
// rating counts Pop, Stat and ItemAvg read, the item-average sums and the Dyn
// coverage frequencies — and publish each batch through the server's
// versioned atomic engine swap. Trained factor models stay frozen between
// full retrains (warm-start semantics); everything derived cheaply from counts
// is rebuilt per batch.

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
	// The row is resolved once here; every batch's rebuild reads it.
	kind, err := p.persistable()
	if err != nil {
		return nil, err
	}
	state := ingest.NewStateFromDataset(p.train, p.prefs, p.dynFreq(), kind.itemSums)
	if p.ingestPrefFill > 0 {
		state.PrefFill = p.ingestPrefFill
	}
	state.AppliedSeq = p.ingestSeq

	cfg := ingest.Config{
		State: state,
		Rebuild: func(s *ingest.State) (serve.Engine, error) {
			return p.pipelineFromState(kind, s)
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
			np, err := p.pipelineFromState(kind, s)
			if err != nil {
				return err
			}
			return np.Save(path)
		}
		cfg.CheckpointEvery = c.checkpointEvery
	}
	ing, err := ingest.New(cfg)
	if err != nil && cfg.Log != nil {
		cfg.Log.Close() // the refusal is the error to report
	}
	return ing, err
}

// pipelineFromState reassembles a serving pipeline around the ingestion
// state: the extended train set and the incrementally maintained statistics
// rebuild the cheap components (kind.rebuild and the coverage spec's
// restore), while a trained factor model — a kind with no rebuild — is reused
// frozen. What a frozen model determines is carried over, not rebuilt: its
// normaliser is p's own, re-aimed at the grown catalog, so the per-user range
// table it has filled survives the swap and a batch costs a user nothing they
// already paid — and around such a model the pipeline is a serve.Revalidator,
// so neither does a batch cost a cached list it did not touch (see
// Revalidate).
func (p *Pipeline) pipelineFromState(kind *baseKind, s *ingest.State) (*Pipeline, error) {
	crec, err := p.cfg.coverage.restore(s.DynFreq, s.Train)
	if err != nil {
		return nil, err
	}
	next := Pipeline{
		train:          s.Train,
		prefs:          s.Prefs,
		cfg:            p.cfg,
		crec:           crec,
		ingestSeq:      s.AppliedSeq,
		ingestPrefFill: s.PrefFill,
		shard:          p.shard,
	}
	if kind.rebuild != nil {
		next.baseScorer = kind.rebuild(p.baseScorer, s)
		next.arec = accuracyFor(kind, next.baseScorer, s.Train, p.cfg.topN)
	} else {
		norm := p.arec.(*core.ScorerAccuracy).Scorer.(*recommender.NormalizedScorer)
		next.baseScorer = p.baseScorer
		next.arec = &core.ScorerAccuracy{Scorer: norm.ForCatalog(s.Train.NumItems())}
		next.lineage = s.Lineage
	}
	return assemble(next)
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
// items in the same order. (i) reads the train set: each event of the lineage
// appended one rating, so the events after from.Seq are its last
// ingestSeq − from.Seq ratings, and an item was named by one of them exactly
// when its last rating index reaches that cut. (ii) and (iii) are
// core.SurvivesGrowth; a catalog that did not grow needs neither. A list
// shorter than n took every candidate there was, so any new item would join
// it. A mark of another lineage, or one past this pipeline's cursor, has no
// cut in this train set and answers RevalForeign.
func (p *Pipeline) Revalidate(u UserID, list TopNSet, n int, from serve.Mark) serve.Revalidation {
	if p.lineage == nil || from.Lineage != p.lineage || from.Seq > p.ingestSeq {
		return serve.RevalForeign
	}
	cut := p.train.NumRatings() - int(p.ingestSeq-from.Seq)
	for _, i := range list {
		if named := p.train.ItemRatings(i); len(named) > 0 && named[len(named)-1] >= cut {
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
