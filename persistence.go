package ganc

import (
	"errors"
	"fmt"

	"ganc/internal/core"
	"ganc/internal/dataset"
	"ganc/internal/knn"
	"ganc/internal/longtail"
	"ganc/internal/mf"
	"ganc/internal/persist"
	"ganc/internal/rank"
	"ganc/internal/recommender"
)

// Model persistence facade: Pipeline.Save writes a complete warm-start
// snapshot — train set, trained base model, θ preferences, coverage state and
// the PopAccuracy cache — into the versioned container implemented by
// internal/persist, and LoadEngine reassembles a serving-ready Pipeline from
// it without retraining anything. DESIGN.md §8 documents the snapshot format
// and its compatibility rules.
//
// Restart cost drops from O(retrain + GANC sweep) to O(read + index rebuild):
// the expensive artifacts (factor matrices, similarity lists, estimated θ,
// accumulated Dyn frequencies) are restored bit-identically, so a loaded
// engine's RecommendAll output is byte-identical to the engine that saved it.

// Snapshot section names. The "ingest" section is present only in snapshots
// written as streaming-ingestion checkpoints.
const (
	sectionMeta     = "meta"
	sectionDataset  = "dataset"
	sectionBase     = "base"
	sectionPrefs    = "prefs"
	sectionCoverage = "coverage"
	sectionPopCache = "popcache"
	sectionIngest   = "ingest"
	sectionCluster  = "cluster"
)

// ErrSnapshotUnsupported marks pipelines that cannot be persisted: fully
// custom accuracy or coverage components the snapshot format has no codec
// for, and the seeded-random Rand base/coverage whose mid-stream rng state is
// not captured.
var ErrSnapshotUnsupported = errors.New("ganc: pipeline has components the snapshot format cannot persist")

// snapshotMeta is the "meta" section: everything needed to re-dispatch the
// remaining sections plus the original pipeline configuration.
type snapshotMeta struct {
	PipelineName string
	BaseKind     string
	CoverageName string
	TopN         int
	SampleSize   int
	Workers      int
	Seed         int64
	PrefModel    string
	PrefConstant float64
	// Precision is the serving tier ("f64" or "f32"); snapshots from
	// before the tiered hot path carry the empty string, which parses as f64.
	Precision string
}

// prefsSnapshot is the "prefs" section.
type prefsSnapshot struct {
	Model  string
	Values []float64
}

// coverageSnapshot is the "coverage" section; Freq is nil for Stat coverage
// (rebuilt from the dataset at load time).
type coverageSnapshot struct {
	Name string
	Freq []int
}

// popSnapshot is the "base" section for the Pop base.
type popSnapshot struct {
	Counts []int
}

// itemAvgSnapshot is the "base" section for the ItemAvg base.
type itemAvgSnapshot struct {
	Avg    []float64
	Lambda float64
}

// clusterSnapshot is the "cluster" section written by shard-scoped
// snapshots: the shard's identity and the hash-ring epoch the split was cut
// for, so a shard server can refuse a snapshot from another ring generation
// and a router can detect a mixed-epoch deployment through /info.
type clusterSnapshot struct {
	ShardID   int
	NumShards int
	RingEpoch uint64
}

// ingestSnapshot is the "ingest" section written by checkpoints: the
// applied-event cursor plus the incremental statistics that are cheaper to
// restore than to recount.
type ingestSnapshot struct {
	AppliedSeq uint64
	AvgLambda  float64
	PrefFill   float64
}

// baseKind classifies the pipeline's accuracy component for the snapshot
// dispatch table.
func (p *Pipeline) baseKind() (string, error) {
	if p.baseScorer != nil {
		switch p.baseScorer.(type) {
		case *recommender.Pop:
			return "Pop", nil
		case *recommender.ItemAvg:
			return "ItemAvg", nil
		case *mf.RSVD:
			return "RSVD", nil
		case *mf.PSVD:
			return "PSVD", nil
		case *knn.ItemKNN:
			return "ItemKNN", nil
		case *rank.Model:
			return "CofiRank", nil
		default:
			return "", fmt.Errorf("%w: base scorer %T (%s)", ErrSnapshotUnsupported, p.baseScorer, p.baseScorer.Name())
		}
	}
	if _, ok := p.arec.(*core.PopAccuracy); ok {
		return "Pop", nil
	}
	return "", fmt.Errorf("%w: custom accuracy recommender %T", ErrSnapshotUnsupported, p.arec)
}

// coverageName classifies the pipeline's coverage component.
func (p *Pipeline) coverageName() (string, error) {
	switch p.crec.(type) {
	case *core.DynCoverage:
		return "Dyn", nil
	case *core.StatCoverage:
		return "Stat", nil
	default:
		// RandCoverage is deliberately excluded: its shared rng state is
		// consumed in evaluation order, so a restore could not reproduce the
		// saved engine's behaviour anyway.
		return "", fmt.Errorf("%w: coverage recommender %T", ErrSnapshotUnsupported, p.crec)
	}
}

// addBaseSection encodes the trained base model under the "base" section.
func (p *Pipeline) addBaseSection(b *persist.Builder, kind string) error {
	switch kind {
	case "Pop":
		counts := p.train.PopularityVector()
		if pop, ok := p.baseScorer.(*recommender.Pop); ok {
			counts = pop.Counts()
		}
		return b.AddGob(sectionBase, &popSnapshot{Counts: counts})
	case "ItemAvg":
		avg := p.baseScorer.(*recommender.ItemAvg)
		return b.AddGob(sectionBase, &itemAvgSnapshot{Avg: avg.Averages(), Lambda: avg.Lambda()})
	case "RSVD":
		return b.AddFrom(sectionBase, p.baseScorer.(*mf.RSVD).Save)
	case "PSVD":
		return b.AddFrom(sectionBase, p.baseScorer.(*mf.PSVD).Save)
	case "ItemKNN":
		return b.AddFrom(sectionBase, p.baseScorer.(*knn.ItemKNN).Save)
	case "CofiRank":
		return b.AddFrom(sectionBase, p.baseScorer.(*rank.Model).Save)
	default:
		return fmt.Errorf("%w: base kind %q", ErrSnapshotUnsupported, kind)
	}
}

// snapshotBuilder assembles the full snapshot for this pipeline. seq carries
// the ingestion cursor (zero outside checkpoints).
func (p *Pipeline) snapshotBuilder(seq uint64, avgLambda, prefFill float64) (*persist.Builder, error) {
	kind, err := p.baseKind()
	if err != nil {
		return nil, err
	}
	covName, err := p.coverageName()
	if err != nil {
		return nil, err
	}
	var b persist.Builder
	meta := snapshotMeta{
		PipelineName: p.Name(),
		BaseKind:     kind,
		CoverageName: covName,
		TopN:         p.cfg.topN,
		SampleSize:   p.cfg.sampleSize,
		Workers:      p.cfg.workers,
		Seed:         p.cfg.seed,
		PrefModel:    string(p.prefs.Model),
		PrefConstant: prefConstant,
		Precision:    p.cfg.precision.String(),
	}
	if err := b.AddGob(sectionMeta, &meta); err != nil {
		return nil, err
	}
	if err := b.AddFrom(sectionDataset, p.train.EncodeSnapshot); err != nil {
		return nil, err
	}
	if err := p.addBaseSection(&b, kind); err != nil {
		return nil, err
	}
	if err := b.AddGob(sectionPrefs, &prefsSnapshot{Model: string(p.prefs.Model), Values: p.prefs.Values}); err != nil {
		return nil, err
	}
	cov := coverageSnapshot{Name: covName}
	if dyn, ok := p.crec.(*core.DynCoverage); ok {
		cov.Freq = dyn.Frequencies()
	}
	if err := b.AddGob(sectionCoverage, &cov); err != nil {
		return nil, err
	}
	if pa, ok := p.arec.(*core.PopAccuracy); ok {
		if cache := pa.CacheSnapshot(); len(cache) > 0 {
			if err := b.AddGob(sectionPopCache, cache); err != nil {
				return nil, err
			}
		}
	}
	if seq > 0 || avgLambda > 0 {
		if err := b.AddGob(sectionIngest, &ingestSnapshot{AppliedSeq: seq, AvgLambda: avgLambda, PrefFill: prefFill}); err != nil {
			return nil, err
		}
	}
	if p.shard != nil {
		if err := b.AddGob(sectionCluster, &clusterSnapshot{
			ShardID:   p.shard.ShardID,
			NumShards: p.shard.NumShards,
			RingEpoch: p.shard.RingEpoch,
		}); err != nil {
			return nil, err
		}
	}
	return &b, nil
}

// Save writes a warm-start snapshot of the pipeline to path, atomically
// (temp file + rename). The snapshot captures the train set, the trained
// base model, the θ preferences, the coverage state (including accumulated
// Dyn frequencies) and the PopAccuracy cache; LoadEngine restores all of it
// without retraining. Pipelines assembled around custom accuracy/coverage
// components, or around the Rand baselines, return ErrSnapshotUnsupported.
func (p *Pipeline) Save(path string) error {
	b, err := p.snapshotBuilder(p.ingestSeq, p.ingestAvgLambda, p.ingestPrefFill)
	if err != nil {
		return err
	}
	return b.Save(path)
}

// LoadEngine reads a snapshot written by Pipeline.Save (or by a streaming-
// ingestion checkpoint) and reassembles a serving-ready Pipeline: the dataset
// indexes are rebuilt, the trained base model is restored bit-identically,
// and the GANC instance starts from the saved θ vector and coverage state.
// The loaded engine's RecommendAll output is byte-identical to what the
// saving engine would have produced from the same state.
//
// Unsupported format versions, corruption (bad magic, failed checksums,
// truncation) and missing sections are reported as errors wrapping the
// internal/persist sentinels — they never panic, so callers can fail fast
// with a clear message.
func LoadEngine(path string) (*Pipeline, error) {
	snap, err := persist.Load(path)
	if err != nil {
		return nil, err
	}
	var meta snapshotMeta
	if err := snap.Gob(sectionMeta, &meta); err != nil {
		return nil, err
	}
	dsReader, err := snap.Reader(sectionDataset)
	if err != nil {
		return nil, err
	}
	train, err := dataset.DecodeSnapshot(dsReader)
	if err != nil {
		return nil, err
	}
	if train.NumUsers() == 0 || train.NumItems() == 0 {
		return nil, fmt.Errorf("ganc: snapshot %s holds an empty dataset", path)
	}

	var prefSnap prefsSnapshot
	if err := snap.Gob(sectionPrefs, &prefSnap); err != nil {
		return nil, err
	}
	if len(prefSnap.Values) != train.NumUsers() {
		return nil, fmt.Errorf("ganc: snapshot preference vector covers %d users but the dataset has %d",
			len(prefSnap.Values), train.NumUsers())
	}
	prefs := &Preferences{Model: longtail.Model(prefSnap.Model), Values: prefSnap.Values}

	precision, err := ParseScoringPrecision(meta.Precision)
	if err != nil {
		return nil, fmt.Errorf("ganc: snapshot %s: %w", path, err)
	}

	arec, baseScorer, err := loadBase(snap, meta, train)
	if err != nil {
		return nil, err
	}
	if baseScorer != nil && precision != PrecisionF64 {
		applyScoringPrecision(baseScorer, precision)
	}

	var covSnap coverageSnapshot
	if err := snap.Gob(sectionCoverage, &covSnap); err != nil {
		return nil, err
	}
	var crec CoverageRecommender
	var covSpec CoverageSpec
	switch covSnap.Name {
	case "Dyn":
		if len(covSnap.Freq) != train.NumItems() {
			return nil, fmt.Errorf("ganc: snapshot Dyn frequencies cover %d items but the dataset has %d",
				len(covSnap.Freq), train.NumItems())
		}
		crec = core.NewDynCoverageFrom(covSnap.Freq)
		covSpec = CoverageDyn()
	case "Stat":
		crec = core.NewStatCoverage(train)
		covSpec = CoverageStat()
	default:
		return nil, fmt.Errorf("ganc: snapshot has unknown coverage recommender %q", covSnap.Name)
	}

	g, err := core.New(train, arec, prefs, crec, core.Config{
		N:          meta.TopN,
		SampleSize: meta.SampleSize,
		Seed:       meta.Seed,
		Workers:    meta.Workers,
		Precision:  precision,
	})
	if err != nil {
		return nil, err
	}

	p := &Pipeline{
		train: train,
		ganc:  g,
		prefs: prefs,
		cfg: pipelineConfig{
			baseName:   meta.BaseKind,
			prefModel:  longtail.Model(meta.PrefModel),
			coverage:   covSpec,
			topN:       meta.TopN,
			sampleSize: meta.SampleSize,
			workers:    meta.Workers,
			seed:       meta.Seed,
			precision:  precision,
		},
		arec:       arec,
		baseScorer: baseScorer,
		crec:       crec,
	}
	if snap.Has(sectionIngest) {
		var ing ingestSnapshot
		if err := snap.Gob(sectionIngest, &ing); err != nil {
			return nil, err
		}
		p.ingestSeq = ing.AppliedSeq
		p.ingestPrefFill = ing.PrefFill
		p.ingestAvgLambda = ing.AvgLambda
	}
	if snap.Has(sectionCluster) {
		var cs clusterSnapshot
		if err := snap.Gob(sectionCluster, &cs); err != nil {
			return nil, err
		}
		if cs.NumShards <= 0 || cs.ShardID < 0 || cs.ShardID >= cs.NumShards {
			return nil, fmt.Errorf("ganc: snapshot %s has invalid shard identity %d/%d", path, cs.ShardID, cs.NumShards)
		}
		p.shard = &ShardIdentity{ShardID: cs.ShardID, NumShards: cs.NumShards, RingEpoch: cs.RingEpoch}
	}
	return p, nil
}

// SaveShard writes a shard-scoped warm-start snapshot: the full Pipeline.Save
// payload plus a cluster section naming the shard, the shard count and the
// hash-ring epoch the split was cut for. A snapshot dealt out by SaveShard is
// what bootstraps one shard server of a cluster (see NewCluster and
// cmd/gancd -role split).
func (p *Pipeline) SaveShard(path string, id ShardIdentity) error {
	if id.NumShards <= 0 || id.ShardID < 0 || id.ShardID >= id.NumShards {
		return fmt.Errorf("ganc: invalid shard identity %d/%d", id.ShardID, id.NumShards)
	}
	shadow := *p
	shadow.shard = &id
	b, err := shadow.snapshotBuilder(p.ingestSeq, p.ingestAvgLambda, p.ingestPrefFill)
	if err != nil {
		return err
	}
	return b.Save(path)
}

// LoadShardEngine restores a shard-scoped snapshot written by SaveShard (or
// by a shard's ingestion checkpoint) and returns the pipeline together with
// its shard identity. Snapshots without a cluster section are refused: a
// plain single-node snapshot behind a shard flag is a deployment mistake
// worth failing fast on (LoadEngine still reads shard snapshots fine when no
// identity is expected).
func LoadShardEngine(path string) (*Pipeline, ShardIdentity, error) {
	p, err := LoadEngine(path)
	if err != nil {
		return nil, ShardIdentity{}, err
	}
	if p.shard == nil {
		return nil, ShardIdentity{}, fmt.Errorf("ganc: snapshot %s carries no shard identity (not written by SaveShard)", path)
	}
	return p, *p.shard, nil
}

// loadBase restores the accuracy component and the raw base scorer from the
// "base" section according to the meta dispatch.
func loadBase(snap *persist.Snapshot, meta snapshotMeta, train *Dataset) (AccuracyRecommender, Scorer, error) {
	normalized := func(s Scorer) AccuracyRecommender {
		return newNormalizedAccuracy(s, train.NumItems())
	}
	switch meta.BaseKind {
	case "Pop":
		var ps popSnapshot
		if err := snap.Gob(sectionBase, &ps); err != nil {
			return nil, nil, err
		}
		if len(ps.Counts) != train.NumItems() {
			return nil, nil, fmt.Errorf("ganc: snapshot Pop counts cover %d items but the dataset has %d",
				len(ps.Counts), train.NumItems())
		}
		pop := recommender.NewPopFromCounts(ps.Counts)
		arec := core.NewPopAccuracyWith(pop, train, meta.TopN)
		if snap.Has(sectionPopCache) {
			var cache map[UserID][]ItemID
			if err := snap.Gob(sectionPopCache, &cache); err != nil {
				return nil, nil, err
			}
			arec.RestoreCache(cache)
		}
		return arec, pop, nil
	case "ItemAvg":
		var ia itemAvgSnapshot
		if err := snap.Gob(sectionBase, &ia); err != nil {
			return nil, nil, err
		}
		s := recommender.NewItemAvgFromAverages(ia.Avg, ia.Lambda)
		return normalized(s), s, nil
	case "RSVD":
		r, err := snap.Reader(sectionBase)
		if err != nil {
			return nil, nil, err
		}
		s, err := mf.LoadRSVD(r)
		if err != nil {
			return nil, nil, err
		}
		return normalized(s), s, nil
	case "PSVD":
		r, err := snap.Reader(sectionBase)
		if err != nil {
			return nil, nil, err
		}
		s, err := mf.LoadPSVD(r)
		if err != nil {
			return nil, nil, err
		}
		return normalized(s), s, nil
	case "ItemKNN":
		r, err := snap.Reader(sectionBase)
		if err != nil {
			return nil, nil, err
		}
		s, err := knn.Load(r, train)
		if err != nil {
			return nil, nil, err
		}
		return normalized(s), s, nil
	case "CofiRank":
		r, err := snap.Reader(sectionBase)
		if err != nil {
			return nil, nil, err
		}
		s, err := rank.Load(r)
		if err != nil {
			return nil, nil, err
		}
		return normalized(s), s, nil
	default:
		return nil, nil, fmt.Errorf("ganc: snapshot has unknown base kind %q", meta.BaseKind)
	}
}

// Snapshot error sentinels re-exported from internal/persist so callers can
// errors.Is-match load failures without importing internal packages.
var (
	// ErrSnapshotBadMagic marks a file that is not a GANC snapshot.
	ErrSnapshotBadMagic = persist.ErrBadMagic
	// ErrSnapshotVersion marks an incompatible snapshot format version.
	ErrSnapshotVersion = persist.ErrUnsupportedVersion
	// ErrSnapshotCorrupt marks structural or checksum corruption.
	ErrSnapshotCorrupt = persist.ErrCorrupt
)
