package ganc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ganc/internal/ingest"
	"ganc/internal/persist"
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
			if got, want := got.Train.PopularityVector(), want.Train.PopularityVector(); !slices.Equal(got, want) {
				t.Fatalf("pop counts %v != %v", got, want)
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

// TestCheckpointWithLambdaLoads: a checkpoint whose ingest section still
// carries the ItemAvg λ — every checkpoint written before the λ came from the
// base section alone — loads, and the stream resumed from it serves what the
// uninterrupted stream serves.
func TestCheckpointWithLambdaLoads(t *testing.T) {
	split := persistSplit(t, 53)
	events := streamEvents(t, split.Train, 120, 61)
	dir := t.TempDir()
	seedPath := filepath.Join(dir, "seed.snap")
	if err := buildPersistablePipeline(t, split.Train, "ItemAvg").Save(seedPath); err != nil {
		t.Fatal(err)
	}
	load := func(path string) *Pipeline {
		p, err := LoadEngine(path)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ingestInto := func(p *Pipeline, events []IngestEvent, opts ...IngestorOption) *Ingestor {
		ing, err := NewIngestor(nil, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		applyInBatches(t, ing, events, 30)
		return ing
	}

	refPipe := load(seedPath)
	refIng := ingestInto(refPipe, events)

	const cut = 60
	ckPath := filepath.Join(dir, "checkpoint.snap")
	if err := ingestInto(load(seedPath), events[:cut], WithIngestCheckpoint(ckPath, 0)).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := persist.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	var current ingestSnapshot
	if err := snap.Gob(sectionIngest, &current); err != nil {
		t.Fatal(err)
	}
	type ingestSnapshotWithLambda struct {
		AppliedSeq uint64
		AvgLambda  float64
		PrefFill   float64
	}
	var old persist.Builder
	for _, name := range snap.Sections() {
		payload, err := snap.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == sectionIngest {
			old.AddGob(name, &ingestSnapshotWithLambda{AppliedSeq: current.AppliedSeq, AvgLambda: itemAvgShrinkage, PrefFill: current.PrefFill})
			continue
		}
		old.Add(name, payload)
	}
	if err := old.Save(ckPath); err != nil {
		t.Fatal(err)
	}

	restored := load(ckPath)
	if restored.ingestSeq != cut || restored.ingestPrefFill != current.PrefFill {
		t.Fatalf("the old-shape section restored cursor %d and fill %v, want %d and %v",
			restored.ingestSeq, restored.ingestPrefFill, cut, current.PrefFill)
	}
	resumedIng := ingestInto(restored, events[cut:])

	ctx := context.Background()
	want, err := fingerprintPipeline(ctx, refPipe, refIng, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fingerprintPipeline(ctx, restored, resumedIng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the stream resumed from the old checkpoint recommends differently from the uninterrupted one:\n%s\nvs\n%s", got, want)
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

// TestInternedUserNotYetServedIsUnknown: an ingest interns a new user before
// the engine that covers them is published. In that window the served engine
// does not know the user, and both routes must say so as they do for a key
// never seen — a 404 on GET /recommend, an inline "unknown user" in a batch —
// not a 500.
func TestInternedUserNotYetServedIsUnknown(t *testing.T) {
	split := persistSplit(t, 5)
	p := buildPersistablePipeline(t, split.Train, "Pop")
	srv, err := NewServer(p.Train(), p, p.TopN())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	known := p.Train().UserInterner().Key(0)
	p.Train().UserInterner().Intern("interned-not-served")

	resp, err := http.Get(ts.URL + "/recommend?user=interned-not-served")
	if err != nil {
		t.Fatal(err)
	}
	var single struct{ Error string }
	err = json.NewDecoder(resp.Body).Decode(&single)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusNotFound || single.Error != "unknown user interned-not-served" {
		t.Fatalf("GET /recommend for an interned, unserved user: %d %+v (%v), want 404 unknown user", resp.StatusCode, single, err)
	}

	body := fmt.Sprintf(`{"users":["interned-not-served",%q]}`, known)
	resp, err = http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Results []struct {
			Items []string
			Error string
		}
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(batch.Results) != 2 {
		t.Fatalf("batch: %d %+v (%v)", resp.StatusCode, batch, err)
	}
	if got := batch.Results[0]; got.Error != "unknown user" || len(got.Items) != 0 {
		t.Fatalf("batch element for an interned, unserved user: %+v, want unknown user", got)
	}
	if got := batch.Results[1]; got.Error != "" || len(got.Items) == 0 {
		t.Fatalf("batch element for %s: %+v, want a list", known, got)
	}
}
