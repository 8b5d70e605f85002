// Package ingest implements streaming ingestion for the serving layer: an
// append-only interaction log plus an Ingestor that folds new (user, item)
// events into the recommendation state incrementally and publishes the result
// through the serving layer's versioned atomic engine swap.
//
// Each applied event updates four things without retraining anything:
//
//   - the per-item popularity counts (the Pop base and PopAccuracy input),
//   - the per-item rating sums/counts behind the damped ItemAvg means,
//   - the dataset adjacency, appended to in place with only touched users
//     re-sorted (dataset.Extend), so candidate enumeration immediately stops
//     offering the consumed item to that user, and
//   - the Dyn coverage frequency f_i^A, so the paper's dynamic objective
//     keeps discounting items as they are consumed.
//
// Beside them the state notes, per item, the cursor of the last event that
// named it (State.LastNamed): what lets an engine built from a later state
// show that a list computed from an earlier one was left alone.
//
// The write path is write-ahead: events land in the Log (JSON lines, one
// event per line) before they touch state, and periodic checkpoints persist
// the full state together with the applied-sequence cursor. Recovery loads
// the latest checkpoint and replays the log suffix, which reproduces exactly
// the state an uninterrupted process would have reached (this equivalence is
// tested under -race).
//
// The package is engine-agnostic: a Rebuild callback (supplied by the facade,
// which knows how to assemble a Pipeline) turns the updated State into a
// fresh serve.Engine after every batch.
package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// ErrCorruptLog marks a write-ahead log whose non-trailing records cannot be
// parsed — genuine corruption, as opposed to the torn trailing record a crash
// mid-append legitimately leaves (which is repaired silently). Matchable with
// errors.Is through every wrapping layer (OpenLog, ReplayLog).
var ErrCorruptLog = errors.New("ingest: corrupt log")

// Event is one interaction record, keyed by external identifiers. It is the
// serving layer's ingestion payload, re-used verbatim so the HTTP body and
// the write-ahead log share one schema.
type Event = serve.IngestEvent

// --- Append-only interaction log ----------------------------------------------

// Log is an append-only, JSON-lines interaction log: record n (1-based) is
// the n-th event ever ingested, so a byte offset never needs to be tracked —
// a checkpoint stores the applied sequence number and recovery replays every
// record after it. Appends are fsynced per batch; a record is only
// acknowledged (and only counts toward the sequence) once its full line,
// newline included, is durable.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	seq  uint64
	size int64 // byte offset past the last acknowledged record
	path string
	// broken is set when a failed append could not be rolled back; further
	// appends are refused so unacknowledged bytes can never be followed by
	// acknowledged ones (which would desynchronize replay positions from
	// the applied-sequence cursor).
	broken bool
}

// forEachRecord streams the complete, valid JSON-line records of r to fn and
// returns their count plus the byte offset just past the last good record.
// A torn trailing record — the partial line a crash mid-append leaves behind
// — is tolerated and excluded (it was never acknowledged); an invalid record
// with more data after it is genuine corruption and errors.
func forEachRecord(r *bufio.Reader, fn func(line []byte) error) (records uint64, goodEnd int64, err error) {
	for {
		line, err := r.ReadBytes('\n')
		switch {
		case err == io.EOF:
			// Data without a trailing newline is a torn record: Append only
			// acknowledges after the newline is flushed and synced.
			return records, goodEnd, nil
		case err != nil:
			return records, goodEnd, err
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			goodEnd += int64(len(line))
			continue
		}
		if !json.Valid(trimmed) {
			if _, peekErr := r.Peek(1); peekErr == io.EOF {
				return records, goodEnd, nil // torn trailing record
			}
			return records, goodEnd, fmt.Errorf("%w: unparseable record at byte %d", ErrCorruptLog, goodEnd)
		}
		if fn != nil {
			if err := fn(trimmed); err != nil {
				return records, goodEnd, err
			}
		}
		records++
		goodEnd += int64(len(line))
	}
}

// OpenLog opens (or creates) the log at path, counting existing records so
// new appends continue the sequence. A torn trailing record left by a crash
// mid-append is truncated away, so the next append starts on a clean line.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: open log %s: %w", path, err)
	}
	seq, goodEnd, err := forEachRecord(bufio.NewReader(f), nil)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: scan log %s: %w", path, err)
	}
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: repair log %s: %w", path, err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: seek log %s: %w", path, err)
	}
	return &Log{f: f, seq: seq, size: goodEnd, path: path}, nil
}

// Append writes the events as one durable batch and returns the sequence
// number of the last record written. The batch is all-or-nothing: every
// record is encoded before anything touches the file, the lines go out in a
// single write, and the sequence advances only after the fsync succeeds. A
// failed write or sync is rolled back by truncating to the pre-batch offset,
// so a retried batch never lands behind its own partial ghost.
func (l *Log) Append(events []Event) (uint64, error) {
	var buf bytes.Buffer
	for _, ev := range events {
		line, err := json.Marshal(ev)
		if err != nil {
			return l.Seq(), fmt.Errorf("ingest: encode log record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken {
		return l.seq, fmt.Errorf("ingest: log %s is in a failed state (reopen to repair)", l.path)
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		l.rollbackLocked()
		return l.seq, fmt.Errorf("ingest: append log batch: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollbackLocked()
		return l.seq, fmt.Errorf("ingest: sync log: %w", err)
	}
	l.size += int64(buf.Len())
	l.seq += uint64(len(events))
	return l.seq, nil
}

// rollbackLocked discards any bytes a failed append may have left past the
// last acknowledged record; if even that fails, the log is marked broken so
// no further append can follow the ghost bytes. Callers hold l.mu.
func (l *Log) rollbackLocked() {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = true
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.broken = true
	}
}

// Seq returns the sequence number of the last record in the log.
func (l *Log) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close closes the underlying file (every acknowledged batch is already
// durable; there is no buffered state to flush).
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// ReplayLog streams the records of the log at path with sequence numbers in
// (after, ∞) to fn, in order. A missing file replays nothing (a fresh deploy
// has no history to recover), and a torn trailing record is skipped exactly
// as OpenLog would truncate it.
func ReplayLog(path string, after uint64, fn func(seq uint64, ev Event) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingest: open log %s: %w", path, err)
	}
	defer f.Close()
	seq := uint64(0)
	_, _, err = forEachRecord(bufio.NewReader(f), func(line []byte) error {
		seq++
		if seq <= after {
			return nil
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%w: log %s record %d: %v", ErrCorruptLog, path, seq, err)
		}
		return fn(seq, ev)
	})
	if err != nil {
		return fmt.Errorf("ingest: replay log %s: %w", path, err)
	}
	return nil
}

// --- Mutable serving state ----------------------------------------------------

// State is the mutable mirror of everything an engine rebuild needs: the
// (extended) train set, the θ preference vector, the incrementally maintained
// popularity and item-average statistics, the Dyn coverage frequencies and
// the applied-event cursor. It is owned by one Ingestor and mutated only
// under its lock; the immutable structures it points to (Dataset, engine
// inputs) are shared freely with the serving layer.
type State struct {
	// Train is the current train set; every applied batch replaces it with
	// its Extend successor (the state is the linear line Extend appends in
	// place for).
	Train *dataset.Dataset
	// Prefs is the per-user θ vector, grown with PrefFill for new users. It
	// is shared with every engine built from the state, so it is replaced,
	// never written (see growPrefs).
	Prefs *longtail.Preferences
	// PrefFill is the θ assigned to users first seen in the event stream
	// (typically the mean of the estimated population).
	PrefFill float64
	// PopCounts is the per-item rating count f_i^R, indexed by ItemID.
	PopCounts []int
	// AvgSums and AvgCounts accumulate per-item rating totals for the damped
	// ItemAvg means; TotalSum and TotalCount track the global mean.
	AvgSums    []float64
	AvgCounts  []int
	TotalSum   float64
	TotalCount int
	// AvgLambda is the ItemAvg shrinkage pseudo-count.
	AvgLambda float64
	// DynFreq is the Dyn coverage recommendation/consumption frequency f_i^A.
	DynFreq []int
	// LastNamed is, per item, the sequence number of the last event of this
	// state's line of history that named it (0: none has). Together with
	// Lineage it is what lets the serving layer prove a list computed at an
	// earlier cursor untouched by the batches since; neither is persisted — a
	// restored state starts a line of its own.
	LastNamed []uint64
	// Lineage identifies this state's line of history: two engines carry the
	// same one only if they were built from this state, at two cursors. A
	// state assembled by hand has none (nil).
	Lineage *serve.Lineage
	// AppliedSeq is the sequence number of the last event folded into this
	// state — the checkpoint/replay cursor.
	AppliedSeq uint64

	// prefBuf is Prefs.Values with the spare capacity growPrefs appends into.
	// Only the state holds it; published vectors are capacity-clipped views.
	prefBuf []float64
}

// NewStateFromDataset derives the incremental statistics of a fresh state
// from a train set (the cold-start path, before any events are applied).
func NewStateFromDataset(train *dataset.Dataset, prefs *longtail.Preferences, avgLambda float64) *State {
	s := &State{
		Train:     train,
		Prefs:     prefs.Clone(),
		PrefFill:  prefs.Mean(),
		PopCounts: train.PopularityVector(),
		AvgSums:   make([]float64, train.NumItems()),
		AvgCounts: make([]int, train.NumItems()),
		AvgLambda: avgLambda,
		DynFreq:   make([]int, train.NumItems()),
		LastNamed: make([]uint64, train.NumItems()),
		Lineage:   new(serve.Lineage),
	}
	for _, r := range train.Ratings() {
		s.AvgSums[r.Item] += r.Value
		s.AvgCounts[r.Item]++
		s.TotalSum += r.Value
		s.TotalCount++
	}
	return s
}

// GlobalMean returns the running global mean rating.
func (s *State) GlobalMean() float64 {
	if s.TotalCount == 0 {
		return 0
	}
	return s.TotalSum / float64(s.TotalCount)
}

// applyEvents interns the events' keys, grows every per-user/per-item mirror
// to the new universe sizes, bumps the incremental statistics and extends the
// train set. It advances AppliedSeq by one per event.
func (s *State) applyEvents(events []Event) {
	users := s.Train.UserInterner()
	items := s.Train.ItemInterner()
	ratings := make([]types.Rating, len(events))
	for k, ev := range events {
		u := types.UserID(users.Intern(ev.User))
		i := types.ItemID(items.Intern(ev.Item))
		ratings[k] = types.Rating{User: u, Item: i, Value: ev.Value}
	}

	numItems := items.Len()
	s.PopCounts = growTo(s.PopCounts, numItems)
	s.AvgSums = growTo(s.AvgSums, numItems)
	s.AvgCounts = growTo(s.AvgCounts, numItems)
	s.DynFreq = growTo(s.DynFreq, numItems)
	s.LastNamed = growTo(s.LastNamed, numItems)
	s.growPrefs(users.Len())

	for k, r := range ratings {
		s.PopCounts[r.Item]++
		s.AvgSums[r.Item] += r.Value
		s.AvgCounts[r.Item]++
		s.TotalSum += r.Value
		s.TotalCount++
		s.DynFreq[r.Item]++
		s.LastNamed[r.Item] = s.AppliedSeq + uint64(k) + 1
	}
	s.Train = s.Train.Extend(ratings)
	s.AppliedSeq += uint64(len(events))
}

// growTo zero-extends v to n elements. The state owns these vectors (engines
// are built from copies), so they grow in place with append's amortised
// capacity instead of being recopied whenever one item is new.
func growTo[T int | uint64 | float64](v []T, n int) []T {
	if len(v) >= n {
		return v
	}
	return append(v, make([]T, n-len(v))...)
}

// growPrefs gives users [Prefs.Len(), n) the fill preference. Engines of
// earlier batches still read the old vector, so the new one is a longer view
// of the same backing array: appending writes only past every published
// length. The state is the array's only writer; a Prefs it did not publish
// itself (the initial one, or one a caller assigned) is copied first.
func (s *State) growPrefs(n int) {
	have := s.Prefs.Len()
	if have >= n {
		return
	}
	if len(s.prefBuf) != have || (have > 0 && &s.prefBuf[0] != &s.Prefs.Values[0]) {
		s.prefBuf = append([]float64(nil), s.Prefs.Values...)
	}
	for len(s.prefBuf) < n {
		s.prefBuf = append(s.prefBuf, s.PrefFill)
	}
	s.Prefs = &longtail.Preferences{Model: s.Prefs.Model, Values: s.prefBuf[:n:n]}
}

// --- Ingestor -----------------------------------------------------------------

// Rebuild assembles a fresh serving engine from the current state. It runs
// after every applied batch, under the ingestor's lock; implementations
// should reuse frozen components (trained factor models) and rebuild only the
// cheap derived ones.
type Rebuild func(s *State) (serve.Engine, error)

// Checkpointer persists the current state (the facade composes the snapshot
// container). It runs under the ingestor's lock.
type Checkpointer func(s *State) error

// Config assembles an Ingestor.
type Config struct {
	// State is the initial serving state (cold-built or checkpoint-restored).
	State *State
	// Rebuild turns the state into a serve.Engine after each batch.
	Rebuild Rebuild
	// Server, when set, receives the rebuilt engine through its atomic
	// versioned swap after each batch.
	Server *serve.Server
	// Log, when set, makes the write path write-ahead: events are appended
	// and fsynced before they are applied.
	Log *Log
	// Checkpoint, when set together with a positive CheckpointEvery, is
	// invoked after every CheckpointEvery applied events.
	Checkpoint      Checkpointer
	CheckpointEvery int
	// OnCommit, when set, is invoked after every committed batch — Apply's
	// state mutation and Recover's replay alike — under the ingestor's lock,
	// with the sequence number of the batch's first event. It is the
	// replication hook: the cluster layer ships committed batches to replicas
	// from here. The hook has no error return on purpose; replication
	// failures must never fail a batch that is already durable (the shipper
	// falls back to catch-up from the write-ahead log instead).
	OnCommit func(firstSeq uint64, events []Event)
}

// Ingestor serializes event application: WAL append → state mutation →
// engine rebuild → atomic swap → (periodic) checkpoint. It implements
// serve.IngestSink, so attaching it to a Server enables POST /ingest.
type Ingestor struct {
	mu              sync.Mutex
	cfg             Config
	sinceCheckpoint int
}

// New validates the configuration and returns an Ingestor.
func New(cfg Config) (*Ingestor, error) {
	if cfg.State == nil {
		return nil, fmt.Errorf("ingest: an initial state is required")
	}
	if cfg.Rebuild == nil {
		return nil, fmt.Errorf("ingest: a rebuild callback is required")
	}
	if cfg.CheckpointEvery > 0 && cfg.Checkpoint == nil {
		return nil, fmt.Errorf("ingest: CheckpointEvery is set but no Checkpointer is configured")
	}
	return &Ingestor{cfg: cfg}, nil
}

// Apply folds one event batch into the serving state: append to the log (if
// configured), mutate the state, rebuild the engine, swap it into the server
// (if configured) and checkpoint when the interval is due. Batches are
// applied atomically with respect to each other; concurrent callers
// serialize.
//
// Failure semantics follow the commit point (the state mutation): an error
// return means nothing was applied or logged — the batch is safe to retry.
// Failures after the commit (engine republish, checkpoint) do NOT fail the
// batch, because the events are already durable and retrying would
// double-count them; they are reported in IngestResult.Warning instead, and
// the server keeps serving the previous engine generation until the next
// batch republishes.
func (in *Ingestor) Apply(ctx context.Context, events []Event) (serve.IngestResult, error) {
	if err := ctx.Err(); err != nil {
		return serve.IngestResult{}, err
	}
	if len(events) == 0 {
		return serve.IngestResult{}, fmt.Errorf("ingest: empty event batch")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	start := time.Now()
	var walTime time.Duration
	if in.cfg.Log != nil {
		if _, err := in.cfg.Log.Append(events); err != nil {
			return serve.IngestResult{}, err
		}
		walTime = time.Since(start)
	}
	in.cfg.State.applyEvents(events) // the commit point
	var warnings []string
	if err := in.publishLocked(); err != nil {
		warnings = append(warnings, err.Error())
	}
	if in.cfg.Server != nil {
		in.cfg.Server.ObserveIngestStages(walTime, time.Since(start)-walTime)
	}
	if in.cfg.OnCommit != nil {
		in.cfg.OnCommit(in.cfg.State.AppliedSeq-uint64(len(events))+1, events)
	}
	in.sinceCheckpoint += len(events)
	if in.cfg.CheckpointEvery > 0 && in.sinceCheckpoint >= in.cfg.CheckpointEvery {
		if err := in.cfg.Checkpoint(in.cfg.State); err != nil {
			warnings = append(warnings, fmt.Sprintf("ingest: checkpoint: %v", err))
		} else {
			in.sinceCheckpoint = 0
		}
	}
	res := in.resultLocked()
	res.Warning = strings.Join(warnings, "; ")
	return res, nil
}

// publishLocked rebuilds the engine from the current state and swaps it into
// the server. Callers hold in.mu.
func (in *Ingestor) publishLocked() error {
	engine, err := in.cfg.Rebuild(in.cfg.State)
	if err != nil {
		return fmt.Errorf("ingest: rebuild engine: %w", err)
	}
	if in.cfg.Server != nil {
		if err := in.cfg.Server.Update(engine); err != nil {
			return fmt.Errorf("ingest: swap engine: %w", err)
		}
	}
	return nil
}

// resultLocked summarizes the current state. Callers hold in.mu.
func (in *Ingestor) resultLocked() serve.IngestResult {
	res := serve.IngestResult{Seq: in.cfg.State.AppliedSeq}
	if in.cfg.Server != nil {
		res.Version = in.cfg.Server.Version()
	}
	return res
}

// IngestEvents implements serve.IngestSink.
func (in *Ingestor) IngestEvents(ctx context.Context, events []serve.IngestEvent) (serve.IngestResult, error) {
	res, err := in.Apply(ctx, events)
	if err != nil {
		return res, err
	}
	res.Applied = len(events)
	return res, nil
}

// Recover replays the write-ahead log suffix after the state's AppliedSeq
// cursor (events logged but not yet checkpointed when the process died),
// then rebuilds and swaps once. It must run before the ingestor starts
// accepting new batches.
func (in *Ingestor) Recover() (replayed int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Log == nil {
		return 0, nil
	}
	var batch []Event
	err = ReplayLog(in.cfg.Log.Path(), in.cfg.State.AppliedSeq, func(_ uint64, ev Event) error {
		batch = append(batch, ev)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(batch) == 0 {
		return 0, nil
	}
	in.cfg.State.applyEvents(batch)
	if err := in.publishLocked(); err != nil {
		return 0, err
	}
	if in.cfg.OnCommit != nil {
		in.cfg.OnCommit(in.cfg.State.AppliedSeq-uint64(len(batch))+1, batch)
	}
	return len(batch), nil
}

// Checkpoint forces a checkpoint of the current state regardless of the
// interval.
func (in *Ingestor) Checkpoint() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Checkpoint == nil {
		return fmt.Errorf("ingest: no checkpointer configured")
	}
	if err := in.cfg.Checkpoint(in.cfg.State); err != nil {
		return err
	}
	in.sinceCheckpoint = 0
	return nil
}

// SetCheckpointEvery re-arms automatic checkpoints at a new interval (every
// ≤ 0 disarms them, keeping manual Checkpoint calls). It is how a promoted
// replica, built checkpoint-silent, takes over its shard's checkpoint
// cadence. Without a configured Checkpointer it is a no-op.
func (in *Ingestor) SetCheckpointEvery(every int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Checkpoint != nil {
		in.cfg.CheckpointEvery = every
	}
}

// Close releases the write-ahead log's file handle, if any. Acknowledged
// batches are already durable, so there is nothing to flush; Close exists so
// an orderly shutdown — or a simulated crash in the scenario harness — lets a
// successor process reopen the same log file cleanly. The ingestor must not
// be used afterwards.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.Log == nil {
		return nil
	}
	return in.cfg.Log.Close()
}

// View runs fn with the current state under the ingestor's lock, for
// inspection (tests, /info-style reporting). fn must not retain or mutate the
// state.
func (in *Ingestor) View(fn func(s *State)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	fn(in.cfg.State)
}

// Seq returns the applied-event cursor.
func (in *Ingestor) Seq() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.cfg.State.AppliedSeq
}
