package ganc

// Online-serving benchmarks: per-user latency of the lazy Engine path through
// the HTTP server, cold (engine compute) vs warm (LRU cache hit). The
// TestServeOnline_CacheHitSpeedup assertion is the acceptance gate for the
// online serving design: cache hits must remain a multiple faster than cold
// computes. The original gate was 10×; the index-contiguous candidate
// pipeline cut cold-compute latency by roughly an order of magnitude and
// moved the gate to 3×, and later to the 2× enforced now — the cache must
// still clearly win, but nearly all of the old gap was closed by making the
// underlying sweep cheap rather than by caching it.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// serveFixture assembles a GANC(Pop, θ^G, Dyn) pipeline over a mid-sized
// synthetic dataset and mounts it behind the HTTP server.
func serveFixture(tb testing.TB, opts ...ServerOption) (*Server, *Dataset) {
	tb.Helper()
	data, err := GenerateML100K(0.35)
	if err != nil {
		tb.Fatal(err)
	}
	split := SplitByUser(data, 0.8, rand.New(rand.NewSource(41)))
	p, err := NewPipeline(split.Train,
		WithBaseNamed("Pop"),
		WithCoverage(CoverageDyn()),
		WithTopN(10),
		WithSeed(41))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(split.Train, p, 10, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return srv, split.Train
}

// serveOnce drives one GET /recommend through the handler in process.
func serveOnce(tb testing.TB, handler http.Handler, userKey string) {
	tb.Helper()
	req := httptest.NewRequest(http.MethodGet, "/recommend?user="+userKey, nil)
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		tb.Fatalf("recommend %s → %d: %s", userKey, w.Code, w.Body.String())
	}
}

// BenchmarkServeOnline_ColdPerUser reports the per-user online latency when
// every request is a cold compute (cache disabled, distinct users).
func BenchmarkServeOnline_ColdPerUser(b *testing.B) {
	srv, train := serveFixture(b, WithServerCacheCapacity(0))
	handler := srv.Handler()
	keys := userKeys(train)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, handler, keys[i%len(keys)])
	}
}

// BenchmarkServeOnline_CacheHit reports the per-user latency once the user's
// list is resident in the LRU cache.
func BenchmarkServeOnline_CacheHit(b *testing.B) {
	srv, train := serveFixture(b)
	handler := srv.Handler()
	key := userKeys(train)[0]
	serveOnce(b, handler, key) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, handler, key)
	}
}

func userKeys(train *Dataset) []string {
	keys := make([]string, train.NumUsers())
	for u := 0; u < train.NumUsers(); u++ {
		keys[u] = train.UserInterner().Key(int32(u))
	}
	return keys
}

// TestServeOnline_CacheHitSpeedup asserts the acceptance criterion: serving a
// cached user is ≥2× faster than a cold online compute (see the file comment
// for why the bar moved from 10× as the cold path got fast). It measures as
// the turn cost gate does (costGate): rounds alternate between three users'
// first requests, each a cold compute, and fifty requests each for the same
// users, all cache hits, every round on users no round has asked for; each
// side keeps its best round, and only five losing attempts in a row fail.
func TestServeOnline_CacheHitSpeedup(t *testing.T) {
	srv, train := serveFixture(t)
	handler := srv.Handler()
	keys := userKeys(train)

	const users, hitsPerUser, attempts = 3, 50, 5
	if len(keys) < attempts*9*users {
		t.Fatalf("fixture too small: %d users", len(keys))
	}
	next := -users
	cold := func(k int) { serveOnce(t, handler, keys[next+k]) }
	hit := func(k int) { serveOnce(t, handler, keys[next+k%users]) }
	costGate(t, [2]string{"a cold request", "a cached request"}, [2]int{users, users * hitsPerUser}, 0.5, attempts,
		func() { next += users }, [2]func(k int){cold, hit})
	if stats := srv.Stats(); stats.Hits < users*hitsPerUser*9 {
		t.Fatalf("expected ≥%d cache hits, stats: %+v", users*hitsPerUser*9, stats)
	}
}

// BenchmarkServeOnline_InstrumentedCacheHit reports the cache-hit latency
// with the full observability stack enabled — metrics registry, request
// instrumentation and admission middleware — so the delta against
// BenchmarkServeOnline_CacheHit is the whole per-request instrumentation
// cost (two atomic counter bumps, one histogram observe, one token-bucket
// check).
func BenchmarkServeOnline_InstrumentedCacheHit(b *testing.B) {
	srv, train := serveFixture(b,
		WithMetrics(NewMetricsRegistry()),
		WithServerAdmission(AdmissionConfig{RatePerSec: 1e9, Burst: 1e9}))
	handler := srv.Handler()
	key := userKeys(train)[0]
	serveOnce(b, handler, key) // populate
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, handler, key)
	}
}

// TestServeOnline_InstrumentationOverhead is the tier-1 smoke for the
// instrumentation budget: the fully instrumented recommend path (metrics +
// admission) must stay within 1.5× of the bare path on the cache-hit
// latency. The design budget is <5% at the operating point, where request
// cost dominates; the in-test gate is deliberately loose so scheduler noise
// on shared CI runners cannot flake it, while still catching an accidental
// lock or allocation on the hot path, which costs far more than 1.5×. It
// measures as the turn cost gate does (costGate): the two paths take turns,
// 300 cached reads a side a round, each keeps its best round, and only five
// losing attempts in a row fail. On a small shared box either path's cost
// drifts between ~5µs and ~12µs in stretches of tens of milliseconds
// (collector phases, a neighbour), which one reading of the totals put on one
// side only: it read 1.62× and 1.52× inside full go test ./... runs.
func TestServeOnline_InstrumentationOverhead(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("latency-ratio gate is meaningless under the race detector (it multiplies atomic/lock costs); CI runs this test without -race")
	}
	bare, bareTrain := serveFixture(t)
	inst, instTrain := serveFixture(t,
		WithMetrics(NewMetricsRegistry()),
		WithServerAdmission(AdmissionConfig{RatePerSec: 1e9, Burst: 1e9}))
	bareKey := userKeys(bareTrain)[0]
	instKey := userKeys(instTrain)[0]
	bareHandler, instHandler := bare.Handler(), inst.Handler()
	// Populate the caches; neither side pays first-touch costs inside the
	// timed rounds.
	for k := 0; k < 200; k++ {
		serveOnce(t, bareHandler, bareKey)
		serveOnce(t, instHandler, instKey)
	}
	const hits, attempts = 300, 5
	costGate(t, [2]string{"a bare cached read", "an instrumented cached read"}, [2]int{hits, hits}, 1.5, attempts, nil,
		[2]func(k int){func(int) { serveOnce(t, bareHandler, bareKey) }, func(int) { serveOnce(t, instHandler, instKey) }})
}
