package ganc

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"ganc/internal/dataset"
	"ganc/internal/ingest"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// The publish-path gates: what an ingested batch may keep alive and what it
// may allocate. Both read the runtime (finalizer timing, allocation totals),
// which the race detector distorts, so they skip under -race and CI runs them
// in their own step.

// TestPublishUnpinsRetiredGenerations: a serving generation that has been
// swapped out is garbage at the next collection. Each generation's train set
// gets a finalizer; after a run of served batches, one forced collection must
// reclaim every generation but the newest few. One collection, not two: a
// sync.Pool owned by the generation (what this guards against) is dropped by
// the runtime at the second collection after its last use, so only the first
// tells pinned from unpinned. The server's cache outlives every generation
// and is full before the first publish, so at the collection it holds lists
// stamped by all of them: an entry that kept a reference to the generation
// that computed or kept it would pin that generation's train set.
func TestPublishUnpinsRetiredGenerations(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("finalizer timing is not meaningful under the race detector")
	}
	split := persistSplit(t, 71)
	pipe := buildPersistablePipeline(t, split.Train, "RSVD")
	srv, err := NewServer(split.Train, pipe, 5)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(srv, pipe)
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	keys := userKeys(split.Train)
	events := streamEvents(t, split.Train, 12*20, 73)
	for _, key := range keys {
		serveOnce(t, handler, key)
	}

	const generations = 12
	runtime.GC() // start from a settled heap so no collection is due mid-run
	finalized := make(chan int, generations)
	for g := 0; g < generations; g++ {
		applyInBatches(t, ing, events[g*20:(g+1)*20], 20)
		ing.View(func(s *ingest.State) {
			runtime.SetFinalizer(s.Train, func(*Dataset) { finalized <- g })
		})
		// Serve from the generation, so whatever a sweep borrows (scratch
		// buffers, the normaliser's range table) has been through its hands.
		for k := 0; k < 10; k++ {
			serveOnce(t, handler, keys[(g*10+k)%len(keys)])
		}
	}

	runtime.GC()
	// The current generation and the ingestor's state are live by design;
	// allow one more for a request-scoped reference the runtime has not
	// dropped yet.
	const mayLive = 2
	seen := make(map[int]bool)
	deadline := time.After(10 * time.Second)
	for len(seen) < generations-mayLive {
		select {
		case g := <-finalized:
			seen[g] = true
		case <-deadline:
			t.Fatalf("after one collection only %d of %d retired generations were reclaimed (reclaimed: %v); something per-generation still pins them",
				len(seen), generations-mayLive, slices.Sorted(maps.Keys(seen)))
		}
	}
	for g := range seen {
		if g >= generations-1 {
			t.Fatalf("generation %d is the one being served and must not be reclaimed", g)
		}
	}
	// The entries of the reclaimed generations still serve.
	before := srv.Stats()
	for _, key := range keys {
		serveOnce(t, handler, key)
	}
	if after := srv.Stats(); after.Revalidations.Kept == before.Revalidations.Kept {
		t.Fatalf("no list of a retired generation was kept by the newest: %+v", after.Revalidations)
	}
	runtime.KeepAlive(srv)
	runtime.KeepAlive(ing)
}

// TestRevalidateAllocs is the engine's side of the hit-path gate
// (TestHitPathAllocs in internal/serve pins the server's): proving an older
// list still exact allocates nothing when the catalog has not grown since —
// a scan of the last-named vector — and at most once when it has and the
// new items are scored, whether the frozen model has a float32 bulk body
// (RSVD as it is) or a float64 one alone (RSVD behind float64Bulk).
func TestRevalidateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	const n = 5
	for _, precision := range []string{"f64", "f32"} {
		train := persistSplit(t, 71).Train
		cfg := DefaultRSVDConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed = 6, 2, 7
		m, err := TrainRSVD(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var base Scorer = m
		if precision == "f64" {
			base = float64Bulk{m}
		}
		pipe, err := NewPipeline(train, WithBase(base), WithTopN(n), WithPreferences(PreferenceTFIDF), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		node := newRevalNode(t, pipe, "RSVD", n)
		apply := func(item string) *Pipeline {
			t.Helper()
			ev := IngestEvent{User: train.UserInterner().Key(0), Item: item, Value: 4}
			if _, err := node.ing.Apply(context.Background(), []IngestEvent{ev}); err != nil {
				t.Fatal(err)
			}
			return node.truth(t)
		}
		first := apply(train.ItemInterner().Key(0))
		same := apply(train.ItemInterner().Key(1))
		grown := apply("an-item-nobody-has-seen")
		if grown.Train().NumItems() != first.Train().NumItems()+1 {
			t.Fatal("the catalog did not grow")
		}

		measured := 0
		for u := 1; u < train.NumUsers() && measured < 5; u++ {
			list, err := first.RecommendUser(context.Background(), UserID(u), n)
			if err != nil {
				t.Fatal(err)
			}
			if same.Revalidate(UserID(u), list, n, first.Mark()) != serve.RevalKept ||
				grown.Revalidate(UserID(u), list, n, first.Mark()) != serve.RevalKept {
				continue
			}
			measured++
			if allocs := testing.AllocsPerRun(100, func() { same.Revalidate(UserID(u), list, n, first.Mark()) }); allocs != 0 {
				t.Fatalf("%s, user %d: revalidating over an unchanged catalog allocates %v times, want 0", precision, u, allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() { grown.Revalidate(UserID(u), list, n, first.Mark()) }); allocs > 1 {
				t.Fatalf("%s, user %d: revalidating over a grown catalog allocates %v times, want at most 1", precision, u, allocs)
			}
		}
		if measured == 0 {
			t.Fatalf("%s: no user's list was kept across both batches", precision)
		}
	}
}

// TestPublishAllocationIndependentOfHistory: what one 20-event batch
// allocates depends on the universe (users, items) and the batch, not on how
// many ratings the node already holds. Two train sets over one universe, 50k
// and 200k ratings, must cost a batch the same to within 1.5×; copying the
// rating history per batch (16 B a rating) would make it about 3×.
func TestPublishAllocationIndependentOfHistory(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation totals are not meaningful under the race detector")
	}
	small := applyAllocBytes(t, 50_000)
	large := applyAllocBytes(t, 200_000)
	t.Logf("bytes allocated per 20-event Apply: |D|=50k → %d, |D|=200k → %d (ratio %.2f)",
		small, large, float64(large)/float64(small))
	if float64(large) > 1.5*float64(small) {
		t.Fatalf("a batch at |D|=200k allocates %d B, more than 1.5× the %d B at |D|=50k: the publish path copies state that grows with the history",
			large, small)
	}
}

// applyAllocBytes builds a Pop+Dyn node over a fixed 5000×2000 universe with
// the given number of ratings and returns the median bytes allocated by one
// 20-event Ingestor.Apply (engine rebuild and swap included), taken after a
// warm-up batch.
func applyAllocBytes(t *testing.T, numRatings int) uint64 {
	t.Helper()
	const numUsers, numItems, batch, rounds = 5000, 2000, 20, 7
	rng := rand.New(rand.NewSource(79))
	ratings := make([]types.Rating, numRatings)
	for k := range ratings {
		// The first |U| and |I| ratings touch every user and item once, so
		// both sizes index the same universe.
		u, i := k%numUsers, k%numItems
		if k >= numUsers {
			u, i = rng.Intn(numUsers), rng.Intn(numItems)
		}
		ratings[k] = types.Rating{User: types.UserID(u), Item: types.ItemID(i), Value: float64(1 + rng.Intn(5))}
	}
	train := dataset.FromRatings(fmt.Sprintf("alloc-%d", numRatings), ratings)
	pipe, err := NewPipeline(train, WithBaseNamed("Pop"), WithPreferences(PreferenceActivity), WithTopN(5))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(train, pipe, 5)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(srv, pipe)
	if err != nil {
		t.Fatal(err)
	}
	users, items := train.UserInterner(), train.ItemInterner()
	nextBatch := func() []IngestEvent {
		evs := make([]IngestEvent, batch)
		for k := range evs {
			evs[k] = IngestEvent{
				User:  users.Key(int32(rng.Intn(numUsers))),
				Item:  items.Key(int32(rng.Intn(numItems))),
				Value: float64(1 + rng.Intn(5)),
			}
		}
		return evs
	}
	apply := func(evs []IngestEvent) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ing.Apply(context.Background(), evs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	apply(nextBatch()) // the first Extend of a full slice reserves its tail
	samples := make([]uint64, rounds)
	for r := range samples {
		samples[r] = apply(nextBatch())
	}
	slices.Sort(samples)
	return samples[rounds/2]
}
