package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// lineEngine is a Revalidator double: one cursor of a line of history on
// which user u's list changes every period(u) events and not in between, so
// the list an engine computes, and whether an older one still stands, are
// both a function of the cursors. Its lists are one item long.
type lineEngine struct {
	line  *Lineage
	seq   uint64
	items int
	gate  chan struct{} // when set, computing waits for it to close
}

func period(u types.UserID) uint64 { return 2 + uint64(u)%3 }

// lineItem is the item the line's engine at seq lists for u.
func lineItem(u types.UserID, seq uint64, items int) types.ItemID {
	return types.ItemID((uint64(u) + seq/period(u)) % uint64(items))
}

func (e *lineEngine) Name() string { return "line" }

func (e *lineEngine) RecommendUser(ctx context.Context, u types.UserID, _ int) (types.TopNSet, error) {
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return types.TopNSet{lineItem(u, e.seq, e.items)}, nil
}

func (e *lineEngine) Mark() Mark { return Mark{Lineage: e.line, Seq: e.seq, Items: e.items} }

func (e *lineEngine) Revalidate(u types.UserID, list types.TopNSet, _ int, from Mark) Revalidation {
	switch {
	case from.Seq/period(u) != e.seq/period(u):
		return RevalItemNamed
	case from.Items != e.items:
		return RevalCatalog
	}
	return RevalKept
}

// lineFixture is a train set of the given size in which every user has rated
// one item, so every identifier lineItem can return is interned.
func lineFixture(size int) (*dataset.Dataset, []string) {
	b := dataset.NewBuilder("line", size)
	keys := make([]string, size)
	for k := range keys {
		keys[k] = fmt.Sprintf("user-%02d", k)
		b.Add(keys[k], fmt.Sprintf("item-%02d", k), 3)
	}
	return b.Build(), keys
}

func readList(t *testing.T, h http.Handler, userKey string) RecommendResponse {
	t.Helper()
	code, body := serveOnce(h, http.MethodGet, "/recommend?user="+userKey, "")
	return decodeList(t, code, body)
}

func decodeList(t *testing.T, code int, body string) RecommendResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("recommend → %d: %s", code, body)
	}
	var resp RecommendResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRevalidationOutcomes walks one user's entry through every way a later
// generation can meet it, checking what is served, what is counted where, and
// that a refused list costs exactly one compute.
func TestRevalidationOutcomes(t *testing.T) {
	d, keys := lineFixture(8)
	const u = types.UserID(1) // period 3
	line := new(Lineage)
	at := func(seq uint64, items int) *lineEngine { return &lineEngine{line: line, seq: seq, items: items} }
	s, err := New(d, at(0, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	want := func(step string, version int, seq uint64, stats CacheStats) {
		t.Helper()
		resp := readList(t, h, keys[u])
		if item := d.ItemInterner().Key(int32(lineItem(u, seq, 8))); resp.Version != version || len(resp.Items) != 1 || resp.Items[0] != item {
			t.Fatalf("%s: served %+v, want [%s] at version %d", step, resp, item, version)
		}
		stats.Size, stats.Capacity = 1, DefaultCacheCapacity
		if got := s.Stats(); got != stats {
			t.Fatalf("%s: stats %+v, want %+v", step, got, stats)
		}
	}
	update := func(e Engine) {
		t.Helper()
		if err := s.Update(e); err != nil {
			t.Fatal(err)
		}
	}

	want("first read", 1, 0, CacheStats{Misses: 1})
	want("same generation", 1, 0, CacheStats{Hits: 1, Misses: 1})
	update(at(2, 8)) // same period: the list stands
	want("kept", 2, 2, CacheStats{Hits: 2, Misses: 1, Revalidations: RevalidationStats{Kept: 1}})
	want("kept once, then a plain hit", 2, 2, CacheStats{Hits: 3, Misses: 1, Revalidations: RevalidationStats{Kept: 1}})
	update(at(3, 8)) // the period turned
	want("item named", 3, 3, CacheStats{Hits: 3, Misses: 2, Revalidations: RevalidationStats{Kept: 1, ItemNamed: 1}})
	update(at(4, 9))
	want("catalog", 4, 4, CacheStats{Hits: 3, Misses: 3, Revalidations: RevalidationStats{Kept: 1, ItemNamed: 1, Catalog: 1}})
	update(at(1, 8)) // published out of order: the entry's mark is ahead
	want("mark ahead", 5, 1, CacheStats{Hits: 3, Misses: 4, Revalidations: RevalidationStats{Kept: 1, ItemNamed: 1, Catalog: 1, Foreign: 1}})
	update(&lineEngine{line: new(Lineage), seq: 1, items: 8})
	want("another lineage", 6, 1, CacheStats{Hits: 3, Misses: 5, Revalidations: RevalidationStats{Kept: 1, ItemNamed: 1, Catalog: 1, Foreign: 2}})
	_, recs := fixture()
	update(&countingEngine{name: "no lineage", recs: types.Recommendations{u: recs[0]}})
	if resp := readList(t, h, keys[u]); resp.Version != 7 || resp.Items[0] != d.ItemInterner().Key(int32(recs[0][0])) {
		t.Fatalf("an engine that is no Revalidator served %+v", resp)
	}
	update(at(5, 8)) // and its list means nothing to the line's next engine
	want("from no lineage", 8, 5, CacheStats{Hits: 3, Misses: 7, Revalidations: RevalidationStats{Kept: 1, ItemNamed: 1, Catalog: 1, Foreign: 4}})
}

// TestLatePutKeepsNewerEntry: a compute of generation 1 that finishes after
// two swaps answers its own request with its own list and version, and leaves
// the entry a later generation cached in place.
func TestLatePutKeepsNewerEntry(t *testing.T) {
	d, keys := lineFixture(8)
	const u = types.UserID(0) // period 2
	line := new(Lineage)
	slow := &lineEngine{line: line, seq: 0, items: 8, gate: make(chan struct{})}
	s, err := New(d, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	type answer struct {
		code int
		body string
	}
	old := make(chan answer)
	go func() {
		code, body := serveOnce(h, http.MethodGet, "/recommend?user="+keys[u], "")
		old <- answer{code, body}
	}()
	for gen := s.gen.Load(); ; runtime.Gosched() { // until generation 1 holds the in-flight compute
		gen.mu.Lock()
		started := len(gen.flight) == 1
		gen.mu.Unlock()
		if started {
			break
		}
	}
	for _, seq := range []uint64{2, 4} {
		if err := s.Update(&lineEngine{line: line, seq: seq, items: 8}); err != nil {
			t.Fatal(err)
		}
	}
	if resp := readList(t, h, keys[u]); resp.Version != 3 || resp.Items[0] != d.ItemInterner().Key(int32(lineItem(u, 4, 8))) {
		t.Fatalf("generation 3 served %+v", resp)
	}
	close(slow.gate)
	late := <-old
	if resp := decodeList(t, late.code, late.body); resp.Version != 1 || resp.Items[0] != d.ItemInterner().Key(int32(lineItem(u, 0, 8))) {
		t.Fatalf("the request generation 1 computed for was answered %+v", resp)
	}
	e, at, ok := s.cache.get(u)
	if !ok || at.version != 3 || e.set[0] != lineItem(u, 4, 8) {
		t.Fatalf("after the late put the cache holds %+v stamped %+v", e, at)
	}
	if before := s.Stats(); readList(t, h, keys[u]).Version != 3 || s.Stats().Hits != before.Hits+1 {
		t.Fatal("generation 3's entry no longer serves as a plain hit")
	}
}

// TestRevalidationRacesUpdate: single reads, batches and Update race over one
// line of history; run under -race. Every list in a 200 must be the one the
// engine of the version it carries computes — whether that generation
// computed it, kept an older one, or found a newer one in the cache and
// recomputed.
func TestRevalidationRacesUpdate(t *testing.T) {
	const users, swaps = 12, 60
	d, keys := lineFixture(users)
	line := new(Lineage)
	s, err := New(d, &lineEngine{line: line, items: users}, 1, WithBatchWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// Version v serves the engine at cursor v−1: Update is called from one
	// goroutine, with every cursor in turn.
	check := func(resp RecommendResponse) error {
		u, ok := d.UserInterner().Lookup(resp.User)
		if !ok || resp.Version < 1 || resp.Version > swaps+1 || len(resp.Items) != 1 {
			return fmt.Errorf("malformed answer %+v", resp)
		}
		if want := d.ItemInterner().Key(int32(lineItem(types.UserID(u), uint64(resp.Version-1), users))); resp.Items[0] != want {
			return fmt.Errorf("user %s at version %d was served %s, that generation's engine computes %s", resp.User, resp.Version, resp.Items[0], want)
		}
		return nil
	}
	batchBody, _ := json.Marshal(BatchRequest{Users: keys})

	// Swaps and answers pace each other — a swap waits for its generation's
	// share of answers, a request for the swap that is due — so every
	// generation serves and is served from, however the goroutines are
	// scheduled.
	const perSwap = 10
	var answered, published atomic.Int64
	await := func(due func() bool) {
		for !due() && !t.Failed() {
			runtime.Gosched()
		}
	}
	turn := func() {
		await(func() bool {
			done := published.Load()
			return done == swaps || answered.Load() < (done+1)*perSwap
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				turn()
				code, body := serveOnce(h, http.MethodGet, "/recommend?user="+keys[(w+k)%users], "")
				var resp RecommendResponse
				if err := json.Unmarshal([]byte(body), &resp); code != http.StatusOK || err != nil {
					t.Errorf("read → %d %s (%v)", code, body, err)
					return
				}
				if err := check(resp); err != nil {
					t.Error(err)
					return
				}
				answered.Add(1)
			}
		}(w)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				turn()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(batchBody)))
				var resp BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Results) != users {
					t.Errorf("batch → %d %s (%v)", rec.Code, rec.Body, err)
					return
				}
				for _, el := range resp.Results {
					if err := check(el); err != nil {
						t.Error(err)
						return
					}
				}
				answered.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); seq <= swaps; seq++ {
			await(func() bool { return answered.Load() >= int64(seq)*perSwap })
			if err := s.Update(&lineEngine{line: line, seq: seq, items: users}); err != nil {
				t.Error(err)
				return
			}
			published.Add(1)
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.Revalidations.Kept == 0 || st.Revalidations.ItemNamed == 0 {
		t.Errorf("the race never met an older entry both ways: %+v", st.Revalidations)
	}
}
