package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/obs"
	"ganc/internal/recommender"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// testDataset builds a small dataset with string keys u0.., i0.. so ingested
// events can reference both existing and brand-new users/items.
func testDataset(t *testing.T, numUsers, numItems, ratings int, seed int64) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := dataset.NewBuilder("ingest-test", ratings)
	for k := 0; k < ratings; k++ {
		u := rng.Intn(numUsers)
		i := rng.Intn(numItems)
		b.Add(fmt.Sprintf("u%d", u), fmt.Sprintf("i%d", i), float64(1+rng.Intn(5)))
	}
	return b.Build()
}

func testState(t *testing.T, d *dataset.Dataset) *State {
	t.Helper()
	prefs, err := longtail.Estimate(longtail.ModelActivity, d, nil, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return NewStateFromDataset(d, prefs, make([]int, d.NumItems()), true)
}

// popEngine is the minimal engine rebuild used across these tests: a Pop
// model counted from the extended train set.
func popEngine(s *State) (serve.Engine, error) {
	return &recommender.TopNEngine{
		Model: &recommender.ScorerTopN{Scorer: recommender.NewPop(s.Train)},
		Train: s.Train,
		N:     5,
	}, nil
}

func randomEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for k := range events {
		// ~20% of events reference users/items beyond the cold universe.
		events[k] = Event{
			User:  fmt.Sprintf("u%d", rng.Intn(25)),
			Item:  fmt.Sprintf("i%d", rng.Intn(19)),
			Value: float64(1 + rng.Intn(5)),
		}
	}
	return events
}

// TestIncrementalMatchesRecount checks that the incrementally maintained
// statistics equal a from-scratch recount of the extended dataset.
func TestIncrementalMatchesRecount(t *testing.T) {
	d := testDataset(t, 20, 15, 300, 7)
	s := testState(t, d)
	ing, err := New(Config{State: s, Rebuild: popEngine})
	if err != nil {
		t.Fatal(err)
	}
	events := randomEvents(200, 11)
	for lo := 0; lo < len(events); lo += 17 {
		hi := lo + 17
		if hi > len(events) {
			hi = len(events)
		}
		if _, err := ing.Apply(context.Background(), events[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	ing.View(func(s *State) {
		sums := make([]float64, s.Train.NumItems())
		for _, r := range s.Train.Ratings() {
			sums[r.Item] += r.Value
		}
		if !slices.Equal(s.AvgSums, sums) {
			t.Fatalf("incremental item sums %v != recount %v", s.AvgSums, sums)
		}
		if got, want := s.TotalSum/float64(s.Train.NumRatings()), s.Train.MeanRating(); got != want {
			t.Fatalf("incremental global mean %v != dataset mean %v", got, want)
		}
		// Adjacency must be sorted and deduplicated for every user.
		for u := 0; u < s.Train.NumUsers(); u++ {
			items := s.Train.UserItemsSorted(types.UserID(u))
			for k := 1; k < len(items); k++ {
				if items[k] <= items[k-1] {
					t.Fatalf("user %d adjacency not strictly sorted: %v", u, items)
				}
			}
		}
		if s.AppliedSeq != uint64(len(events)) {
			t.Fatalf("applied seq %d, want %d", s.AppliedSeq, len(events))
		}
		if s.Lineage == nil {
			t.Fatal("a state built from a dataset claims no lineage")
		}
	})
}

// TestStateKeepsOnlyItsMirrors: a state keeps the Dyn frequencies only when
// it was given them and the item sums only when it was asked for them; a
// mirror it does not keep stays nil through every batch, one it keeps grows
// with the catalog and counts the events.
func TestStateKeepsOnlyItsMirrors(t *testing.T) {
	events := randomEvents(90, 13)
	for _, tc := range []struct {
		name     string
		dyn      bool
		itemSums bool
	}{{"neither", false, false}, {"Dyn", true, false}, {"ItemAvg", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			d := testDataset(t, 20, 15, 300, 7)
			prefs, err := longtail.Estimate(longtail.ModelActivity, d, nil, 0.5, 1)
			if err != nil {
				t.Fatal(err)
			}
			var freq []int
			if tc.dyn {
				freq = make([]int, d.NumItems())
			}
			ing, err := New(Config{State: NewStateFromDataset(d, prefs, freq, tc.itemSums), Rebuild: popEngine})
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(events); lo += 30 {
				if _, err := ing.Apply(context.Background(), events[lo:lo+30]); err != nil {
					t.Fatal(err)
				}
			}
			ing.View(func(s *State) {
				if (s.DynFreq != nil) != tc.dyn || (s.AvgSums != nil) != tc.itemSums {
					t.Fatalf("kept Dyn frequencies %v and item sums %v, want %v and %v", s.DynFreq != nil, s.AvgSums != nil, tc.dyn, tc.itemSums)
				}
				if !tc.itemSums && s.TotalSum != 0 {
					t.Fatalf("a state without item sums totals %v", s.TotalSum)
				}
				if !tc.dyn {
					return
				}
				want := make([]int, s.Train.NumItems())
				for _, r := range s.Train.Ratings()[d.NumRatings():] {
					want[r.Item]++
				}
				assertIntsEqual(t, "dyn freq", s.DynFreq, want)
			})
		})
	}
}

// TestCheckpointRestoreEquivalence is the acceptance property: ingesting a
// stream uninterrupted and ingesting it with a mid-stream checkpoint +
// restore + log replay must land on identical Pop and Dyn state.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	dir := t.TempDir()
	events := randomEvents(120, 23)

	// Uninterrupted reference run (no log, no checkpoints).
	refState := testState(t, testDataset(t, 20, 15, 300, 7))
	ref, err := New(Config{State: refState, Rebuild: popEngine})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(context.Background(), events); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: WAL + checkpoint every 50 events. The "checkpoint"
	// captures the state the way the facade snapshot would: the train set,
	// deep copies of the incremental statistics, and the cursor.
	type checkpoint struct {
		seq      uint64
		dyn      []int
		train    *dataset.Dataset
		prefs    *longtail.Preferences
		avgSums  []float64
		totalSum float64
	}
	var last checkpoint
	save := func(s *State) error {
		last = checkpoint{
			seq:      s.AppliedSeq,
			dyn:      append([]int(nil), s.DynFreq...),
			train:    s.Train,
			prefs:    s.Prefs.Clone(),
			avgSums:  append([]float64(nil), s.AvgSums...),
			totalSum: s.TotalSum,
		}
		return nil
	}
	logPath := filepath.Join(dir, "events.log")
	wal, err := OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	liveState := testState(t, testDataset(t, 20, 15, 300, 7))
	live, err := New(Config{State: liveState, Rebuild: popEngine, Log: wal, Checkpoint: save, CheckpointEvery: 70})
	if err != nil {
		t.Fatal(err)
	}
	// Apply in batches of 30: the only checkpoint lands at 90 applied events,
	// leaving a 30-event log suffix for recovery to replay.
	for lo := 0; lo < len(events); lo += 30 {
		if _, err := live.Apply(context.Background(), events[lo:lo+30]); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if last.seq == 0 || last.seq == uint64(len(events)) {
		// The final checkpoint at seq 120 makes replay trivial; rewind to the
		// first one (seq 60) to exercise a genuine suffix replay.
		t.Fatalf("unexpected checkpoint cursor %d", last.seq)
	}

	// "Crash": rebuild a fresh ingestor from the checkpointed state and the
	// surviving log, replay, and compare against the uninterrupted run.
	restored := &State{
		Train:      last.train,
		Prefs:      last.prefs,
		PrefFill:   liveState.PrefFill,
		AvgSums:    last.avgSums,
		TotalSum:   last.totalSum,
		DynFreq:    last.dyn,
		AppliedSeq: last.seq,
	}
	wal2, err := OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	revived, err := New(Config{State: restored, Rebuild: popEngine, Log: wal2})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := revived.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(events) - int(last.seq); replayed != want {
		t.Fatalf("replayed %d events, want %d", replayed, want)
	}

	ref.View(func(want *State) {
		revived.View(func(got *State) {
			if got.AppliedSeq != want.AppliedSeq {
				t.Fatalf("seq %d != %d", got.AppliedSeq, want.AppliedSeq)
			}
			assertIntsEqual(t, "pop counts", got.Train.PopularityVector(), want.Train.PopularityVector())
			assertIntsEqual(t, "dyn freq", got.DynFreq, want.DynFreq)
			if !slices.Equal(got.AvgSums, want.AvgSums) || got.TotalSum != want.TotalSum {
				t.Fatalf("item sums %v (total %v) != %v (total %v)", got.AvgSums, got.TotalSum, want.AvgSums, want.TotalSum)
			}
			if got.Train.NumRatings() != want.Train.NumRatings() {
				t.Fatalf("ratings %d != %d", got.Train.NumRatings(), want.Train.NumRatings())
			}
		})
	})
}

// TestRecoverCountsTowardCheckpoint: the events Recover replays lie past the
// last checkpoint like any applied batch, so they count toward the next one
// and the log suffix a restart leaves stays under CheckpointEvery. A process
// checkpointing every 10 events dies at event 15 (checkpoint at 10); its
// successor replays 5 and must checkpoint again at 20, not 25.
func TestRecoverCountsTowardCheckpoint(t *testing.T) {
	const every = 10
	events := randomEvents(25, 31)
	logPath := filepath.Join(t.TempDir(), "events.log")
	var checkpoints []uint64
	save := func(s *State) error {
		checkpoints = append(checkpoints, s.AppliedSeq)
		return nil
	}
	run := func(state *State, events []Event) *Ingestor {
		wal, err := OpenLog(logPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		ing, err := New(Config{State: state, Rebuild: popEngine, Log: wal, Checkpoint: save, CheckpointEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Recover(); err != nil {
			t.Fatal(err)
		}
		for k := range events {
			if _, err := ing.Apply(context.Background(), events[k:k+1]); err != nil {
				t.Fatal(err)
			}
		}
		return ing
	}

	first := run(testState(t, testDataset(t, 20, 15, 300, 7)), events[:15])
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(checkpoints, []uint64{10}) {
		t.Fatalf("the first process checkpointed at %v, want [10]", checkpoints)
	}
	// The successor starts from the checkpoint: the state at event 10.
	restored := testState(t, testDataset(t, 20, 15, 300, 7))
	restored.applyEvents(events[:10])
	run(restored, events[15:])
	if !slices.Equal(checkpoints, []uint64{10, 20}) {
		t.Fatalf("checkpoints at %v, want [10 20]: the replayed events did not count toward the cadence", checkpoints)
	}
}

// TestNewRefusesShortLog: a write-ahead log that ends before the state's
// cursor is refused at construction — over it, recovery would replay the
// wrong records and the next append would be misnumbered — while a log that
// reaches the cursor, or runs past it, is accepted.
func TestNewRefusesShortLog(t *testing.T) {
	const cursor = 5
	for _, records := range []int{0, 2, cursor, cursor + 2} {
		wal, err := OpenLog(filepath.Join(t.TempDir(), "events.log"))
		if err != nil {
			t.Fatal(err)
		}
		if records > 0 {
			if _, err := wal.Append(randomEvents(records, 3)); err != nil {
				t.Fatal(err)
			}
		}
		state := testState(t, testDataset(t, 20, 15, 300, 7))
		state.AppliedSeq = cursor
		_, err = New(Config{State: state, Rebuild: popEngine, Log: wal})
		wal.Close()
		if short := records < cursor; short != errors.Is(err, ErrShortLog) || !short && err != nil {
			t.Fatalf("a log of %d records under a state at event %d: New returned %v", records, cursor, err)
		}
	}
}

func assertIntsEqual(t *testing.T, label string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: %d != %d", label, i, got[i], want[i])
		}
	}
}

// TestTornTrailingLogRecord simulates a crash mid-append: the partial final
// record is never read (an open log reads only what it acknowledged), is
// truncated on open (not counted, not concatenated onto by later appends),
// while mid-file corruption still fails loudly — on open, and on a read of
// an open log whose acknowledged bytes were overwritten.
func TestTornTrailingLogRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.log")
	wal, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Append([]Event{{User: "u1", Item: "i1", Value: 5}, {User: "u2", Item: "i2", Value: 4}}); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial JSON line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"user":"u3","it`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The read tolerates the torn tail.
	replayed, err := wal.ReadRange(0, wal.Seq())
	if err != nil {
		t.Fatalf("a read over a torn tail must succeed, got %v", err)
	}
	if len(replayed) != 2 {
		t.Fatalf("read %d records, want 2", len(replayed))
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-opening repairs the file and appends continue cleanly.
	wal2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if wal2.Seq() != 2 {
		t.Fatalf("seq after repair = %d, want 2", wal2.Seq())
	}
	if _, err := wal2.Append([]Event{{User: "u3", Item: "i3", Value: 3}}); err != nil {
		t.Fatal(err)
	}
	replayed, err = wal2.ReadRange(0, wal2.Seq())
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 3 || replayed[2].User != "u3" || replayed[2].Item != "i3" {
		t.Fatalf("after repair+append, read %v", replayed)
	}

	// Mid-file corruption (garbage followed by more records) must error.
	if err := os.WriteFile(path, []byte("garbage not json\n{\"user\":\"u1\",\"item\":\"i1\",\"value\":5}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal2.ReadRange(0, wal2.Seq()); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("mid-file corruption must fail a read with ErrCorruptLog, got %v", err)
	}
	if _, err := OpenLog(path); err == nil {
		t.Fatal("mid-file corruption must fail open")
	}
}

// TestIngestSwapsServedEngine wires an Ingestor behind a live server and
// checks that ingested events change what is served, through a versioned
// swap, while concurrent readers keep getting answers.
func TestIngestSwapsServedEngine(t *testing.T) {
	d := testDataset(t, 20, 15, 300, 7)
	s := testState(t, d)
	engine, err := popEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(d, engine, 5)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := New(Config{State: s, Rebuild: popEngine, Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIngestSink(ing)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v0 := srv.Version()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := ing.IngestEvents(context.Background(), randomEvents(25, int64(100+w)))
			if err != nil {
				t.Error(err)
				return
			}
			if res.Applied != 25 {
				t.Errorf("applied %d, want 25", res.Applied)
			}
		}(w)
	}
	// Concurrent reads against whatever generation is current.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				resp, err := http.Get(ts.URL + "/recommend?user=u0")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET /recommend status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	if srv.Version() != v0+4 {
		t.Fatalf("version %d, want %d (one swap per batch)", srv.Version(), v0+4)
	}
	if got := ing.Seq(); got != 100 {
		t.Fatalf("seq %d, want 100", got)
	}
}

// TestIngestEndpoint posts events through the HTTP surface and checks the
// 404-when-disabled contract.
func TestIngestEndpoint(t *testing.T) {
	d := testDataset(t, 10, 8, 120, 3)
	s := testState(t, d)
	engine, err := popEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(d, engine, 5)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"events":[{"user":"u1","item":"i2","value":4},{"user":"newcomer","item":"i3","value":5}]}`
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("without a sink, POST /ingest status = %d, want 404", resp.StatusCode)
	}

	ing, err := New(Config{State: s, Rebuild: popEngine, Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIngestSink(ing)
	resp, err = http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res serve.IngestResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest status = %d, want 200", resp.StatusCode)
	}
	if res.Applied != 2 || res.Seq != 2 || res.Version != 2 {
		t.Fatalf("unexpected ingest result %+v", res)
	}
	// The brand-new user must now be servable.
	resp, err = http.Get(ts.URL + "/recommend?user=newcomer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("newly ingested user not servable: status %d", resp.StatusCode)
	}
}

// TestIngestStageHistogramsOnMetrics: the write path reports its own stage
// times — WAL append, then apply + rebuild + swap — on the server's registry,
// one observation of each per applied batch.
func TestIngestStageHistogramsOnMetrics(t *testing.T) {
	d := testDataset(t, 10, 8, 120, 29)
	s := testState(t, d)
	engine, err := popEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(d, engine, 5, serve.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenLog(filepath.Join(t.TempDir(), "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	ing, err := New(Config{State: s, Rebuild: popEngine, Server: srv, Log: wal})
	if err != nil {
		t.Fatal(err)
	}
	const batches = 3
	for _, batch := range [batches][]Event{randomEvents(5, 1), randomEvents(7, 2), randomEvents(2, 3)} {
		if _, err := ing.Apply(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&text)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ganc_ingest_wal_seconds", "ganc_ingest_publish_seconds"} {
		if got, ok := sc.Value(name + "_count"); !ok || got != batches {
			t.Errorf("%s_count = %v (present %v), want %d", name, got, ok, batches)
		}
		if got, _ := sc.Value(name + "_sum"); got <= 0 {
			t.Errorf("%s_sum = %v, want a positive duration", name, got)
		}
	}
}

// TestPrefsGrowthNeverWritesAPublishedVector: the θ vector grows in place
// (amortised, not recopied per new user), yet every vector an engine already
// holds keeps its length and values, none exposes capacity to append into,
// and a second state forked from a published vector cannot reach its tail.
func TestPrefsGrowthNeverWritesAPublishedVector(t *testing.T) {
	d := testDataset(t, 20, 15, 300, 23)
	s := testState(t, d)
	newUser := func(name string) []Event { return []Event{{User: name, Item: "i0", Value: 3}} }

	var published []*longtail.Preferences
	var want [][]float64
	publish := func() {
		published = append(published, s.Prefs)
		want = append(want, append([]float64(nil), s.Prefs.Values...))
	}
	publish()
	for k := 0; k < 40; k++ {
		s.applyEvents(newUser(fmt.Sprintf("fresh-%d", k)))
		publish()
	}
	// A fork (a checkpoint restored beside the live stream) starts from a
	// vector the live state published and grows it with another fill.
	fork := testState(t, d)
	fork.Train, fork.Prefs, fork.PrefFill = s.Train, published[10], 0.123
	fork.applyEvents(newUser("fork-only"))

	for g, p := range published {
		if len(p.Values) != len(want[g]) || cap(p.Values) != len(want[g]) {
			t.Fatalf("generation %d: θ vector has len %d cap %d, want both %d", g, len(p.Values), cap(p.Values), len(want[g]))
		}
		for u, v := range want[g] {
			if p.Values[u] != v {
				t.Fatalf("generation %d: θ of user %d changed from %v to %v after it was published", g, u, v, p.Values[u])
			}
		}
	}
	if got, want := s.Prefs.Len(), d.NumUsers()+40; got != want {
		t.Fatalf("θ covers %d users, want %d", got, want)
	}
	if got := fork.Prefs.Get(types.UserID(s.Prefs.Len())); got != 0.123 {
		t.Fatalf("the fork's own new user has θ %v, want its fill 0.123", got)
	}
}

// TestReadRangeDuringAppends: readers running beside concurrent Append
// batches only ever see a prefix of the final log — whole batches, every
// record acknowledged, none torn — and a read racing or following Close fails
// with an error, never a panic.
func TestReadRangeDuringAppends(t *testing.T) {
	wal, err := OpenLog(filepath.Join(t.TempDir(), "events.log"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches, size = 4, 30, 37 // batches straddle offset-index entries
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for b := 0; b < batches; b++ {
				events := make([]Event, size)
				for k := range events {
					events[k] = Event{User: fmt.Sprintf("w%d", w), Item: fmt.Sprintf("b%d", b), Value: float64(k)}
				}
				if _, err := wal.Append(events); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// wholeBatches reports whether got is made of complete batches only.
	wholeBatches := func(got []Event) bool {
		if len(got)%size != 0 {
			return false
		}
		for k, ev := range got {
			head := got[k-k%size]
			if ev.User != head.User || ev.Item != head.Item || ev.Value != float64(k%size) {
				return false
			}
		}
		return true
	}
	read := func(answers *[][]Event, stop <-chan struct{}) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			seq := wal.Seq()
			got, err := wal.ReadRange(0, seq)
			if err != nil {
				t.Error(err)
				return
			}
			if uint64(len(got)) != seq || !wholeBatches(got) {
				t.Errorf("a read of (0, %d] returned %d records, not all of them whole batches", seq, len(got))
				return
			}
			if len(*answers) < 40 {
				*answers = append(*answers, got)
			}
		}
	}
	stop := make(chan struct{})
	answers := make([][][]Event, 3)
	var reading sync.WaitGroup
	for r := range answers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			read(&answers[r], stop)
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	final, err := wal.ReadRange(0, wal.Seq())
	if err != nil || len(final) != writers*batches*size {
		t.Fatalf("the final log reads %d records (%v), want %d", len(final), err, writers*batches*size)
	}
	for _, rs := range answers {
		for _, got := range rs {
			if !slices.Equal(got, final[:len(got)]) {
				t.Fatalf("a %d-record answer is not a prefix of the final log", len(got))
			}
		}
	}

	// Close while readers run, then read after it: errors, no panic.
	var racing sync.WaitGroup
	for r := 0; r < 3; r++ {
		racing.Add(1)
		go func() {
			defer racing.Done()
			for k := 0; k < 20; k++ {
				if got, err := wal.ReadRange(0, wal.Seq()); err == nil && !slices.Equal(got, final) {
					t.Errorf("a read beside Close returned %d records that are not the log", len(got))
				}
			}
		}()
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	racing.Wait()
	if got, err := wal.ReadRange(0, wal.Seq()); err == nil {
		t.Fatalf("a read after Close returned %d records and no error", len(got))
	}
}

// TestCatchUpReadIndependentOfLogLength: what one 1 024-record ReadRange at
// the tail of a log allocates — the read behind a catch-up chunk, a tail
// pull and a rejoin — does not grow with the log: ReadRange seeks through
// the offset index instead of scanning from byte 0. A 10 k-record log and a
// 500 k-record one must cost the read the same to within 1.5×.
func TestCatchUpReadIndependentOfLogLength(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation totals are not meaningful under the race detector")
	}
	small := tailReadAllocs(t, 10_000)
	large := tailReadAllocs(t, 500_000)
	t.Logf("allocations per 1024-record tail read: 10k records → %.0f, 500k records → %.0f (ratio %.2f)",
		small, large, large/small)
	if large > 1.5*small {
		t.Fatalf("a tail read of a 500k-record log allocates %.0f times, more than 1.5× the %.0f of a 10k-record log: the read scans the history",
			large, small)
	}
}

// tailReadAllocs builds a log of n records — all but the last 2 048 written
// to the file and indexed by OpenLog's scan, the rest indexed by two Appends
// — and returns the allocations of one ReadRange of its last 1 024 records.
func tailReadAllocs(t *testing.T, n int) float64 {
	t.Helper()
	record := func(seq int) Event {
		return Event{User: fmt.Sprintf("u%07d", seq%5000), Item: fmt.Sprintf("i%07d", seq%700), Value: float64(seq)}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for seq := 1; seq <= n-2048; seq++ {
		if err := enc.Encode(record(seq)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "events.log")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	wal, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	tail := make([]Event, 2048)
	for k := range tail {
		tail[k] = record(n - 2048 + k + 1)
	}
	for _, batch := range [][]Event{tail[:1000], tail[1000:]} {
		if _, err := wal.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	var got []Event
	allocs := testing.AllocsPerRun(5, func() {
		got, err = wal.ReadRange(uint64(n-1024), uint64(n))
	})
	if err != nil || !slices.Equal(got, tail[1024:]) {
		t.Fatalf("the tail read of a %d-record log returned %d records (%v), not its last 1024", n, len(got), err)
	}
	return allocs
}
