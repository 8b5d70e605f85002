package ganc

import (
	"errors"
	"fmt"

	"ganc/internal/core"
	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/persist"
	"ganc/internal/types"
)

// Model persistence facade: Pipeline.Save writes a complete warm-start
// snapshot — train set, trained base model, θ preferences and coverage state —
// into the versioned container implemented by internal/persist, and
// LoadEngine reassembles a serving-ready Pipeline from it without retraining
// anything. DESIGN.md §8 documents the snapshot format and its compatibility
// rules.
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
	sectionIngest   = "ingest"
	sectionCluster  = "cluster"
)

// ErrSnapshotUnsupported marks pipelines that cannot be persisted: fully
// custom accuracy or coverage components the snapshot format has no codec
// for, and the seeded-random Rand base/coverage whose mid-stream rng state is
// not captured.
var ErrSnapshotUnsupported = errors.New("ganc: pipeline has components the snapshot format cannot persist")

// snapshotMeta is the "meta" section: the baseKinds row and the coverage
// spec that decode the remaining sections, plus the original pipeline
// configuration.
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
	// Precision is read, never written: snapshots saved while bulk scoring
	// had a tier to choose carry "f64" or "f32", and both load at the one
	// tier there is; the retired "int8" answers ErrPrecisionRetired.
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

// ingestSnapshot is the "ingest" section written by checkpoints: the
// applied-event cursor and the θ new users get. Sections written while it
// also carried the ItemAvg λ (now read from the base section) still decode;
// gob skips the field.
type ingestSnapshot struct {
	AppliedSeq uint64
	PrefFill   float64
}

// persistable resolves the baseKinds row a snapshot or an ingestor reads the
// pipeline's base through, refusing the pipelines the format has no codec
// for.
func (p *Pipeline) persistable() (*baseKind, error) {
	if p.baseScorer == nil {
		return nil, fmt.Errorf("%w: custom accuracy recommender %T", ErrSnapshotUnsupported, p.arec)
	}
	kind := kindOf(p.baseScorer)
	if kind == nil {
		return nil, fmt.Errorf("%w: base scorer %T (%s)", ErrSnapshotUnsupported, p.baseScorer, p.baseScorer.Name())
	}
	if p.cfg.coverage.restore == nil {
		return nil, fmt.Errorf("%w: coverage recommender %T", ErrSnapshotUnsupported, p.crec)
	}
	return kind, nil
}

// dynFreq is the coverage state worth persisting: the accumulated Dyn
// frequencies, nil under any other coverage recommender.
func (p *Pipeline) dynFreq() []int {
	if dyn, ok := p.crec.(*core.DynCoverage); ok {
		return dyn.Frequencies()
	}
	return nil
}

// Save writes a warm-start snapshot of the pipeline to path, atomically
// (temp file + rename). The snapshot captures the train set, the trained
// base model, the θ preferences and the coverage state (including accumulated
// Dyn frequencies); LoadEngine restores all of it without retraining.
// Pipelines assembled around custom accuracy/coverage components, or around
// the Rand baselines, return ErrSnapshotUnsupported. A pipeline restored from
// or rebuilt by streaming ingestion carries its cursor along (the "ingest"
// section), which is all that makes a snapshot a checkpoint.
func (p *Pipeline) Save(path string) error {
	kind, err := p.persistable()
	if err != nil {
		return err
	}
	var b persist.Builder
	meta := snapshotMeta{
		PipelineName: p.Name(),
		BaseKind:     kind.name,
		CoverageName: p.cfg.coverage.name,
		TopN:         p.cfg.topN,
		SampleSize:   p.cfg.sampleSize,
		Workers:      p.cfg.workers,
		Seed:         p.cfg.seed,
		PrefModel:    string(p.prefs.Model),
		PrefConstant: prefConstant,
	}
	b.AddGob(sectionMeta, &meta)
	b.AddFrom(sectionDataset, p.train.EncodeSnapshot)
	kind.encode(p.baseScorer, &b)
	b.AddGob(sectionPrefs, &prefsSnapshot{Model: string(p.prefs.Model), Values: p.prefs.Values})
	b.AddGob(sectionCoverage, &coverageSnapshot{Name: p.cfg.coverage.name, Freq: p.dynFreq()})
	if p.ingestSeq > 0 {
		b.AddGob(sectionIngest, &ingestSnapshot{AppliedSeq: p.ingestSeq, PrefFill: p.ingestPrefFill})
	}
	if p.shard != nil {
		b.AddGob(sectionCluster, p.shard)
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
// internal/persist sentinels — they never panic — and every error names the
// path and the cause in operator terms, so a CLI prints it as it is.
func LoadEngine(path string) (*Pipeline, error) {
	snap, err := persist.Load(path) // its errors name the path
	if err != nil {
		return nil, err
	}
	p, err := pipelineFromSnapshot(snap)
	if err != nil {
		return nil, fmt.Errorf("ganc: snapshot %s: %w", path, err)
	}
	return p, nil
}

// pipelineFromSnapshot reassembles the pipeline a snapshot's sections hold.
func pipelineFromSnapshot(snap *persist.Snapshot) (*Pipeline, error) {
	var meta snapshotMeta
	if err := snap.Gob(sectionMeta, &meta); err != nil {
		return nil, err
	}
	dsData, err := snap.Section(sectionDataset)
	if err != nil {
		return nil, err
	}
	train, err := dataset.DecodeSnapshot(dsData)
	if err != nil {
		return nil, err
	}
	if train.NumUsers() == 0 || train.NumItems() == 0 {
		return nil, errors.New("the dataset is empty")
	}

	var prefSnap prefsSnapshot
	if err := snap.Gob(sectionPrefs, &prefSnap); err != nil {
		return nil, err
	}
	if len(prefSnap.Values) != train.NumUsers() {
		return nil, fmt.Errorf("preference vector covers %d users but the dataset has %d",
			len(prefSnap.Values), train.NumUsers())
	}
	prefs := &Preferences{Model: longtail.Model(prefSnap.Model), Values: prefSnap.Values}

	if err := types.CheckSnapshotPrecision(meta.Precision); err != nil {
		return nil, err
	}

	kind := kindNamed(meta.BaseKind)
	if kind == nil {
		return nil, fmt.Errorf("unknown base kind %q", meta.BaseKind)
	}
	scorer, err := kind.decode(snap, train)
	if err != nil {
		return nil, err
	}

	var covSnap coverageSnapshot
	if err := snap.Gob(sectionCoverage, &covSnap); err != nil {
		return nil, err
	}
	covSpec, err := ParseCoverage(covSnap.Name)
	if err != nil {
		return nil, err
	}
	if covSpec.restore == nil {
		return nil, fmt.Errorf("%w: coverage recommender %q", ErrSnapshotUnsupported, covSnap.Name)
	}
	crec, err := covSpec.restore(covSnap.Freq, train)
	if err != nil {
		return nil, err
	}

	p := Pipeline{
		train: train,
		prefs: prefs,
		cfg: pipelineConfig{
			coverage:   covSpec,
			topN:       meta.TopN,
			sampleSize: meta.SampleSize,
			workers:    meta.Workers,
			seed:       meta.Seed,
		},
		arec:       accuracyFor(kind, scorer, train, meta.TopN),
		baseScorer: scorer,
		crec:       crec,
	}
	if snap.Has(sectionIngest) {
		var ing ingestSnapshot
		if err := snap.Gob(sectionIngest, &ing); err != nil {
			return nil, err
		}
		p.ingestSeq = ing.AppliedSeq
		p.ingestPrefFill = ing.PrefFill
	}
	if snap.Has(sectionCluster) {
		var id ShardIdentity
		if err := snap.Gob(sectionCluster, &id); err != nil {
			return nil, err
		}
		if err := checkShardIdentity(id); err != nil {
			return nil, err
		}
		p.shard = &id
	}
	return assemble(p)
}

// SaveShard writes a shard-scoped warm-start snapshot: the full Pipeline.Save
// payload plus a cluster section holding the shard identity — the shard, the
// shard count, the hash-ring epoch the split was cut for and the shard's write
// quorum. A snapshot dealt out by SaveShard is what bootstraps every node of
// one shard of a cluster (see NewCluster and cmd/gancd -role split), so each
// of them, primary or replica, knows the quorum it acks under once it is the
// primary. A cluster section written before the quorum was part of it loads
// with WriteQuorum 0.
func (p *Pipeline) SaveShard(path string, id ShardIdentity) error {
	if err := checkShardIdentity(id); err != nil {
		return fmt.Errorf("ganc: %w", err)
	}
	shadow := *p
	shadow.shard = &id
	return shadow.Save(path)
}

// checkShardIdentity is the rule SaveShard and LoadEngine share: the shard
// lies inside its ring and the write quorum is not negative (whether the
// shard has k replicas is MakePrimary's check).
func checkShardIdentity(id ShardIdentity) error {
	switch {
	case id.NumShards <= 0 || id.ShardID < 0 || id.ShardID >= id.NumShards:
		return fmt.Errorf("invalid shard identity %d/%d", id.ShardID, id.NumShards)
	case id.WriteQuorum < 0:
		return fmt.Errorf("invalid write quorum %d", id.WriteQuorum)
	}
	return nil
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
