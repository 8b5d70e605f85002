package ingest

import (
	"bytes"
	"context"
	"encoding/json"
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
	return NewStateFromDataset(d, prefs, 5)
}

// popEngine is the minimal engine rebuild used across these tests: a Pop
// model constructed from the incrementally maintained counts.
func popEngine(s *State) (serve.Engine, error) {
	return &recommender.TopNEngine{
		Model: &recommender.ScorerTopN{Scorer: recommender.NewPopFromCounts(s.PopCounts)},
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
		want := s.Train.PopularityVector()
		if len(want) != len(s.PopCounts) {
			t.Fatalf("pop counts cover %d items, dataset has %d", len(s.PopCounts), len(want))
		}
		for i := range want {
			if want[i] != s.PopCounts[i] {
				t.Fatalf("item %d: incremental count %d != recount %d", i, s.PopCounts[i], want[i])
			}
		}
		if got, want := s.GlobalMean(), s.Train.MeanRating(); got != want {
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
		// Each item remembers the cursor of the last event that named it,
		// whatever the batch boundaries were.
		lastNamed := make([]uint64, s.Train.NumItems())
		for k, ev := range events {
			i, _ := s.Train.ItemInterner().Lookup(ev.Item)
			lastNamed[i] = uint64(k) + 1
		}
		if !slices.Equal(s.LastNamed, lastNamed) {
			t.Fatalf("last-named cursors %v, want %v", s.LastNamed, lastNamed)
		}
		if s.Lineage == nil {
			t.Fatal("a state built from a dataset claims no lineage")
		}
	})
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
	// captures the state the way the facade snapshot would: deep copies of
	// the incremental statistics plus the cursor.
	type checkpoint struct {
		seq       uint64
		pop       []int
		dyn       []int
		train     *dataset.Dataset
		prefs     *longtail.Preferences
		avgSums   []float64
		avgCounts []int
		totalSum  float64
		totalCnt  int
	}
	var last checkpoint
	save := func(s *State) error {
		last = checkpoint{
			seq:       s.AppliedSeq,
			pop:       append([]int(nil), s.PopCounts...),
			dyn:       append([]int(nil), s.DynFreq...),
			train:     s.Train,
			prefs:     s.Prefs.Clone(),
			avgSums:   append([]float64(nil), s.AvgSums...),
			avgCounts: append([]int(nil), s.AvgCounts...),
			totalSum:  s.TotalSum,
			totalCnt:  s.TotalCount,
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
		PopCounts:  last.pop,
		AvgSums:    last.avgSums,
		AvgCounts:  last.avgCounts,
		TotalSum:   last.totalSum,
		TotalCount: last.totalCnt,
		AvgLambda:  5,
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
			assertIntsEqual(t, "pop counts", got.PopCounts, want.PopCounts)
			assertIntsEqual(t, "dyn freq", got.DynFreq, want.DynFreq)
			if got.TotalSum != want.TotalSum || got.TotalCount != want.TotalCount {
				t.Fatalf("global stats (%v,%d) != (%v,%d)", got.TotalSum, got.TotalCount, want.TotalSum, want.TotalCount)
			}
			if got.Train.NumRatings() != want.Train.NumRatings() {
				t.Fatalf("ratings %d != %d", got.Train.NumRatings(), want.Train.NumRatings())
			}
		})
	})
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
// record must be truncated on open (not counted, not concatenated onto by
// later appends) and skipped on replay, while mid-file corruption still
// fails loudly.
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
	if err := wal.Close(); err != nil {
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

	// Replay tolerates the torn tail.
	var replayed []Event
	if err := ReplayLog(path, 0, func(_ uint64, ev Event) error {
		replayed = append(replayed, ev)
		return nil
	}); err != nil {
		t.Fatalf("replay over a torn tail must succeed, got %v", err)
	}
	if len(replayed) != 2 {
		t.Fatalf("replayed %d records, want 2", len(replayed))
	}

	// Re-opening repairs the file and appends continue cleanly.
	wal2, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if wal2.Seq() != 2 {
		t.Fatalf("seq after repair = %d, want 2", wal2.Seq())
	}
	if _, err := wal2.Append([]Event{{User: "u3", Item: "i3", Value: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}
	replayed = nil
	if err := ReplayLog(path, 0, func(_ uint64, ev Event) error {
		replayed = append(replayed, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 3 || replayed[2].User != "u3" || replayed[2].Item != "i3" {
		t.Fatalf("after repair+append, replayed %v", replayed)
	}

	// Mid-file corruption (garbage followed by more records) must error.
	if err := os.WriteFile(path, []byte("garbage not json\n{\"user\":\"u1\",\"item\":\"i1\",\"value\":5}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReplayLog(path, 0, func(uint64, Event) error { return nil }); err == nil {
		t.Fatal("mid-file corruption must fail replay")
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
