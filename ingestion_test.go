package ganc

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"ganc/internal/ingest"
)

// streamEvents synthesizes an interaction stream: mostly existing users and
// items (addressed by their real external keys), with a tail of brand-new
// users and items to exercise on-the-fly interning.
func streamEvents(t *testing.T, train *Dataset, n int, seed int64) []IngestEvent {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	users := train.UserInterner()
	items := train.ItemInterner()
	events := make([]IngestEvent, n)
	for k := range events {
		ev := IngestEvent{Value: float64(1 + rng.Intn(5))}
		if rng.Intn(5) == 0 {
			ev.User = fmt.Sprintf("fresh-user-%d", rng.Intn(8))
		} else {
			ev.User = users.Key(int32(rng.Intn(users.Len())))
		}
		if rng.Intn(7) == 0 {
			ev.Item = fmt.Sprintf("fresh-item-%d", rng.Intn(6))
		} else {
			ev.Item = items.Key(int32(rng.Intn(items.Len())))
		}
		events[k] = ev
	}
	return events
}

// applyInBatches feeds the stream through an ingestor in fixed-size batches.
func applyInBatches(t *testing.T, ing *Ingestor, events []IngestEvent, batch int) {
	t.Helper()
	for lo := 0; lo < len(events); lo += batch {
		hi := lo + batch
		if hi > len(events) {
			hi = len(events)
		}
		if _, err := ing.Apply(context.Background(), events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestCheckpointRestoreParity is the second acceptance property, over
// every row of baseKinds under both persistable coverage recommenders: a
// stream ingested with a mid-stream crash (checkpoint restore + write-ahead
// log replay) must land on exactly the state — and byte-identical served
// output — of uninterrupted ingestion. It walks the table itself, so a row
// cannot be added uncovered. The last name component is the precision the
// seed snapshot's meta section spells: a node upgraded from a build with a
// precision option starts from such a file ("f64" for every model, "f32" for
// those that had the tier) and checkpoints without the field.
func TestIngestCheckpointRestoreParity(t *testing.T) {
	split := persistSplit(t, 53)
	events := streamEvents(t, split.Train, 150, 59)
	for k := range baseKinds {
		row := &baseKinds[k]
		for _, cov := range []CoverageSpec{CoverageDyn(), CoverageStat()} {
			cold := buildPersistablePipeline(t, split.Train, row.name, WithCoverage(cov))
			if kindOf(cold.baseScorer) != row {
				t.Fatalf("the %s pipeline is built around a %T, which is not that row's model", row.name, cold.baseScorer)
			}
			for _, spelling := range []string{"f64", "f32"} {
				if _, tiered := cold.baseScorer.(BulkScorer32); spelling == "f32" && !tiered {
					continue
				}
				t.Run(fmt.Sprintf("%s/%s/%s", row.name, cov.name, spelling), func(t *testing.T) {
					checkpointRestoreParity(t, cold, spelling, events)
				})
			}
		}
	}
}

// checkpointRestoreParity saves cold with its meta section spelling the given
// precision, warm-starts two nodes from the file and ingests events into
// both, one of them through a crash.
func checkpointRestoreParity(t *testing.T, cold *Pipeline, spelling string, events []IngestEvent) {
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.snap")
	if err := cold.Save(seedPath); err != nil {
		t.Fatal(err)
	}
	respellSnapshotPrecision(t, seedPath, spelling)
	load := func(path string) *Pipeline {
		p, err := LoadEngine(path)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Uninterrupted reference.
	refPipe := load(seedPath)
	refIng, err := NewIngestor(nil, refPipe)
	if err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, refIng, events, 30)

	// Interrupted run: WAL + checkpoint every 60 events → the checkpoint
	// lands at seq 60 and 120, leaving a 30-event suffix in the log.
	logPath := filepath.Join(dir, "events.log")
	snapPath := filepath.Join(dir, "checkpoint.snap")
	liveIng, err := NewIngestor(nil, load(seedPath),
		WithIngestLog(logPath),
		WithIngestCheckpoint(snapPath, 60))
	if err != nil {
		t.Fatal(err)
	}
	applyInBatches(t, liveIng, events, 30)
	if err := liveIng.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and warm-start: restore the checkpoint, replay the log suffix.
	restoredPipe := load(snapPath)
	if restoredPipe.ingestSeq != 120 {
		t.Fatalf("checkpoint cursor %d, want 120", restoredPipe.ingestSeq)
	}
	restoredIng, err := NewIngestor(nil, restoredPipe, WithIngestLog(logPath))
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := restoredIng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 30 {
		t.Fatalf("replayed %d events, want 30", replayed)
	}

	// State parity.
	refIng.View(func(want *ingest.State) {
		restoredIng.View(func(got *ingest.State) {
			if got.AppliedSeq != want.AppliedSeq {
				t.Fatalf("seq %d != %d", got.AppliedSeq, want.AppliedSeq)
			}
			if !slices.Equal(got.PopCounts, want.PopCounts) {
				t.Fatalf("pop counts %v != %v", got.PopCounts, want.PopCounts)
			}
			// Under Stat nothing reads the Dyn frequencies, and a checkpoint
			// does not carry them.
			if refPipe.dynFreq() != nil && !slices.Equal(got.DynFreq, want.DynFreq) {
				t.Fatalf("dyn frequencies %v != %v", got.DynFreq, want.DynFreq)
			}
			if got.Train.NumRatings() != want.Train.NumRatings() {
				t.Fatalf("ratings %d != %d", got.Train.NumRatings(), want.Train.NumRatings())
			}
			if !slices.Equal(got.Prefs.Values, want.Prefs.Values) {
				t.Fatalf("θ vectors differ: %v != %v", got.Prefs.Values, want.Prefs.Values)
			}
		})
	})

	// Served-output parity: engines rebuilt from both states must recommend
	// byte-identically.
	ctx := context.Background()
	want, err := fingerprintPipeline(ctx, refPipe, refIng, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fingerprintPipeline(ctx, restoredPipe, restoredIng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the restored node recommends differently from the uninterrupted one:\n%s\nvs\n%s", got, want)
	}
}

// TestIngestorRejectsUnsupportedPipeline mirrors the Save contract: streaming
// ingestion needs the same component codecs.
func TestIngestorRejectsUnsupportedPipeline(t *testing.T) {
	split := persistSplit(t, 61)
	p, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithCoverage(CoverageRand()), WithTopN(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIngestor(nil, p); err == nil {
		t.Fatal("expected NewIngestor to reject a Rand-coverage pipeline")
	}
}
