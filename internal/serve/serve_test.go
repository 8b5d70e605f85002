package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// fixture builds a tiny train set and a recommendation collection for it.
func fixture() (*dataset.Dataset, types.Recommendations) {
	b := dataset.NewBuilder("tiny", 8)
	b.Add("alice", "matrix", 5)
	b.Add("alice", "inception", 4)
	b.Add("bob", "matrix", 3)
	b.Add("bob", "alien", 5)
	d := b.Build()
	recs := types.Recommendations{
		0: {2}, // alice → alien
		1: {1}, // bob → inception
	}
	return d, recs
}

// countingEngine computes from a fixed per-user map and counts engine calls;
// an optional gate blocks computation until released or cancelled.
type countingEngine struct {
	name     string
	recs     types.Recommendations
	computes atomic.Int64
	gate     chan struct{}
}

func (e *countingEngine) Name() string { return e.name }

func (e *countingEngine) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	e.computes.Add(1)
	if e.gate != nil {
		select {
		case <-e.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e.recs[u], nil
}

func newTestServer(t *testing.T, opts ...Option) (*Server, *countingEngine, *httptest.Server) {
	t.Helper()
	d, recs := fixture()
	eng := &countingEngine{name: "GANC(Pop, θ^G, Dyn)", recs: recs}
	s, err := New(d, eng, 1, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, eng, ts
}

// withBatchWorkers sets the bound on one batch's concurrent engine sweeps,
// which every server outside the tests keeps at DefaultBatchWorkers.
func withBatchWorkers(workers int) Option {
	return func(s *Server) { s.batchWorkers = workers }
}

// peakEngine records the most RecommendUser calls it ever had in flight.
type peakEngine struct{ running, peak, calls atomic.Int64 }

func (e *peakEngine) Name() string { return "peak" }

func (e *peakEngine) RecommendUser(context.Context, types.UserID, int) (types.TopNSet, error) {
	e.calls.Add(1)
	cur := e.running.Add(1)
	for {
		if p := e.peak.Load(); cur <= p || e.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	time.Sleep(time.Millisecond)
	e.running.Add(-1)
	return types.TopNSet{0}, nil
}

// TestBatchWorkersBoundSweeps pins the bound on a cold batch: however many
// misses it holds, no more engine sweeps run at once than the server's batch
// workers, and every miss is swept.
func TestBatchWorkersBoundSweeps(t *testing.T) {
	const users = 4 * DefaultBatchWorkers
	b := dataset.NewBuilder("cold", users)
	keys := make([]string, users)
	for u := range keys {
		keys[u] = fmt.Sprintf("user-%02d", u)
		b.Add(keys[u], "item", 3)
	}
	d := b.Build()
	body, _ := json.Marshal(BatchRequest{Users: keys})
	for _, tc := range []struct {
		opts  []Option
		bound int64
	}{{nil, DefaultBatchWorkers}, {[]Option{withBatchWorkers(1)}, 1}} {
		eng := &peakEngine{}
		s, err := New(d, eng, 1, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("cold batch answered %d: %s", w.Code, w.Body)
		}
		if calls, peak := eng.calls.Load(), eng.peak.Load(); calls != users || peak < 1 || peak > tc.bound {
			t.Fatalf("bound %d: %d sweeps for %d misses, at most %d at once", tc.bound, calls, users, peak)
		}
	}
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestNewValidation(t *testing.T) {
	d, recs := fixture()
	eng := &countingEngine{name: "m", recs: recs}
	if _, err := New(nil, eng, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := New(d, nil, 1); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(d, eng, 0); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestHealthEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t)
	var body HealthResponse
	if code := getJSON(t, ts.URL+"/health", &body); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if body.Status != "ok" || body.Version != 1 {
		t.Fatalf("health body %+v", body)
	}
	if body.Admission != nil {
		t.Fatalf("admission block should be absent without admission control: %+v", body)
	}
}

func TestInfoEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t)
	var info InfoResponse
	if code := getJSON(t, ts.URL+"/info", &info); code != http.StatusOK {
		t.Fatalf("info status %d", code)
	}
	if info.Dataset != "tiny" || info.NumUsers != 2 || info.NumItems != 3 || info.TopN != 1 || info.Version != 1 {
		t.Fatalf("info payload %+v", info)
	}
	if info.Model != "GANC(Pop, θ^G, Dyn)" {
		t.Fatalf("info model %q", info.Model)
	}
}

// TestRecommendComputesOnline is the headline behavior: no precomputation
// anywhere, yet a user's request is answered by computing through the Engine.
func TestRecommendComputesOnline(t *testing.T) {
	_, eng, ts := newTestServer(t)
	var rec RecommendResponse
	if code := getJSON(t, ts.URL+"/recommend?user=alice", &rec); code != http.StatusOK {
		t.Fatalf("recommend status %d", code)
	}
	if rec.User != "alice" || len(rec.Items) != 1 || rec.Items[0] != "alien" {
		t.Fatalf("recommend payload %+v", rec)
	}
	if rec.Version != 1 {
		t.Fatalf("recommend version %d, want 1", rec.Version)
	}
	if got := eng.computes.Load(); got != 1 {
		t.Fatalf("engine computed %d times, want 1", got)
	}
}

func TestRecommendErrors(t *testing.T) {
	_, _, ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/recommend", nil); code != http.StatusBadRequest {
		t.Fatalf("missing user param → %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/recommend?user=nobody", nil); code != http.StatusNotFound {
		t.Fatalf("unknown user → %d, want 404", code)
	}
	resp, err := http.Post(ts.URL+"/recommend?user=alice", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST → %d, want 405", resp.StatusCode)
	}
}

func TestUsersEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t)
	var body map[string]int
	if code := getJSON(t, ts.URL+"/users", &body); code != http.StatusOK {
		t.Fatalf("users status %d", code)
	}
	if body["servable_users"] != 2 {
		t.Fatalf("users payload %v", body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, eng, ts := newTestServer(t)
	body, _ := json.Marshal(BatchRequest{Users: []string{"alice", "bob", "nobody"}})
	resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch results %d, want 3", len(out.Results))
	}
	if out.Results[0].Items[0] != "alien" || out.Results[1].Items[0] != "inception" {
		t.Fatalf("batch payload %+v", out.Results)
	}
	if out.Results[2].Error == "" {
		t.Fatal("unknown user in batch should report an inline error")
	}
	if got := eng.computes.Load(); got != 2 {
		t.Fatalf("engine computed %d times, want 2", got)
	}

	// Error paths: wrong method, bad JSON, empty users.
	if code := getJSON(t, ts.URL+"/recommend/batch", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch → %d, want 405", code)
	}
	resp2, _ := http.Post(ts.URL+"/recommend/batch", "application/json", bytes.NewReader([]byte("{")))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON → %d, want 400", resp2.StatusCode)
	}
	resp3, _ := http.Post(ts.URL+"/recommend/batch", "application/json", bytes.NewReader([]byte(`{"users":[]}`)))
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty users → %d, want 400", resp3.StatusCode)
	}
}

func TestCacheHitsSkipEngine(t *testing.T) {
	s, eng, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		if code := getJSON(t, ts.URL+"/recommend?user=alice", nil); code != http.StatusOK {
			t.Fatalf("request %d status %d", i, code)
		}
	}
	if got := eng.computes.Load(); got != 1 {
		t.Fatalf("engine computed %d times for 5 identical requests, want 1", got)
	}
	stats := s.Stats()
	if stats.Hits != 4 || stats.Misses != 1 {
		t.Fatalf("cache stats %+v, want 4 hits / 1 miss", stats)
	}
}

// seedCache puts recs into the server's cache as the serving generation's own
// lists, so a test starts from warm entries the engine never computed.
func seedCache(t *testing.T, s *Server, recs types.Recommendations) {
	t.Helper()
	gen := s.gen.Load()
	for u, set := range recs {
		e, err := s.newEntry(u, set, gen.stamp)
		if err != nil {
			t.Fatal(err)
		}
		s.cache.put(e)
	}
}

func TestSeededCacheServesWithoutEngine(t *testing.T) {
	d, recs := fixture()
	eng := &countingEngine{name: "m", recs: recs}
	s, err := New(d, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	seedCache(t, s, recs)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code := getJSON(t, ts.URL+"/recommend?user=alice", nil); code != http.StatusOK {
		t.Fatalf("warm request status %d", code)
	}
	if got := eng.computes.Load(); got != 0 {
		t.Fatalf("warm cache should avoid the engine entirely, computed %d times", got)
	}
}

func TestLRUEvictionBound(t *testing.T) {
	c := newLRUCache(2)
	c.put(&entry{user: 0, set: types.TopNSet{0}})
	c.put(&entry{user: 1, set: types.TopNSet{1}})
	c.get(0) // 0 is now most recently used
	c.put(&entry{user: 2, set: types.TopNSet{2}})
	if _, _, ok := c.get(1); ok {
		t.Fatal("user 1 should have been evicted (LRU)")
	}
	if e, _, ok := c.get(0); !ok || e.user != 0 || len(e.set) != 1 || e.set[0] != 0 {
		t.Fatalf("user 0 should have survived (recently used), got %+v %v", e, ok)
	}
	if c.len() != 2 {
		t.Fatalf("cache size %d exceeds capacity 2", c.len())
	}
	// A second put for a cached user replaces the entry in place.
	c.put(&entry{user: 0, set: types.TopNSet{2}})
	if e, _, _ := c.get(0); c.len() != 2 || e.set[0] != 2 {
		t.Fatalf("re-put left %+v in a cache of %d", e, c.len())
	}
	// Capacity ≤ 0 disables caching.
	off := newLRUCache(0)
	off.put(&entry{user: 0, set: types.TopNSet{0}})
	if _, _, ok := off.get(0); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

// TestCancelledComputeCachesNothing: a request whose context is cancelled
// while its compute runs answers the context's error and leaves nothing in
// the cache, so the next request for the user computes.
func TestCancelledComputeCachesNothing(t *testing.T) {
	d, recs := fixture()
	eng := &countingEngine{name: "m", recs: recs, gate: make(chan struct{})}
	s, err := New(d, eng, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := s.recommend(ctx, 0)
		done <- err
	}()
	for eng.computes.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled request answered %v, want %v", err, context.Canceled)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the compute outlived its request's cancellation")
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("a cancelled compute left %d entries in the cache", n)
	}
	close(eng.gate)
	e, _, err := s.recommend(context.Background(), 0)
	if err != nil || len(e.set) != 1 || e.set[0] != 2 {
		t.Fatalf("the next request answered %v (%v), want [2]", e, err)
	}
	if got := eng.computes.Load(); got != 2 {
		t.Fatalf("engine computed %d times, want 2: the next request must compute", got)
	}
}

// panicEngine panics on every compute.
type panicEngine struct{}

func (panicEngine) Name() string { return "panics" }
func (panicEngine) RecommendUser(context.Context, types.UserID, int) (types.TopNSet, error) {
	panic("engine exploded")
}

// TestEnginePanicDoesNotWedgeUser verifies that a panicking engine surfaces
// an error and releases the in-flight entry instead of hanging every future
// request for that user.
func TestEnginePanicDoesNotWedgeUser(t *testing.T) {
	d, _ := fixture()
	s, err := New(d, panicEngine{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			_, _, err := s.recommend(context.Background(), 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("request %d: want panic error, got %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d hung: in-flight entry leaked by a previous panic", i)
		}
	}
}

// TestUpdateSwapsEngineAtomically verifies the versioned swap: new requests
// see the new engine and version, and the old generation's cache is dropped.
func TestUpdateSwapsEngineAtomically(t *testing.T) {
	s, _, ts := newTestServer(t)
	getJSON(t, ts.URL+"/recommend?user=alice", nil) // populate v1 cache

	next := &countingEngine{name: "retrained", recs: types.Recommendations{0: {1}}}
	if err := s.Update(next); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Fatalf("version %d after update, want 2", s.Version())
	}
	var info InfoResponse
	getJSON(t, ts.URL+"/info", &info)
	if info.Model != "retrained" || info.Version != 2 {
		t.Fatalf("update not reflected: %+v", info)
	}
	var rec RecommendResponse
	if code := getJSON(t, ts.URL+"/recommend?user=alice", &rec); code != http.StatusOK {
		t.Fatalf("recommend after update status %d", code)
	}
	if rec.Items[0] != "inception" {
		t.Fatalf("stale cache entry served after engine swap: %+v", rec)
	}
	if next.computes.Load() != 1 {
		t.Fatal("old generation's cache must not leak into the new engine")
	}
	// Bob has no list under the new engine → 404.
	if code := getJSON(t, ts.URL+"/recommend?user=bob", nil); code != http.StatusNotFound {
		t.Fatalf("bob should now be 404, got %d", code)
	}
	if err := s.Update(nil); err == nil {
		t.Fatal("nil engine accepted by Update")
	}
}

// TestConcurrentUpdateVsInFlightRecommend hammers /recommend while swapping
// engines; run with -race. Every response must be internally consistent (a
// well-formed list from some generation).
func TestConcurrentUpdateVsInFlightRecommend(t *testing.T) {
	s, _, ts := newTestServer(t)
	_, recs := fixture()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var rec RecommendResponse
				code := getJSON(t, ts.URL+"/recommend?user=alice", &rec)
				if code != http.StatusOK {
					t.Errorf("in-flight recommend → %d", code)
					return
				}
				if len(rec.Items) != 1 {
					t.Errorf("malformed response during swap: %+v", rec)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.Update(&countingEngine{name: fmt.Sprintf("v%d", i), recs: recs}); err != nil {
				t.Errorf("update %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if s.Version() != 51 {
		t.Fatalf("version %d after 50 updates, want 51", s.Version())
	}
}
