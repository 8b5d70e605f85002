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
	"time"
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
// for why the bar moved from 10× as the cold path got fast). Medians over
// several probes keep the comparison robust to scheduler noise.
func TestServeOnline_CacheHitSpeedup(t *testing.T) {
	srv, train := serveFixture(t)
	handler := srv.Handler()
	keys := userKeys(train)

	const coldProbes = 9
	if len(keys) < coldProbes+1 {
		t.Fatalf("fixture too small: %d users", len(keys))
	}
	coldTimes := make([]time.Duration, 0, coldProbes)
	for k := 0; k < coldProbes; k++ {
		start := time.Now()
		serveOnce(t, handler, keys[k])
		coldTimes = append(coldTimes, time.Since(start))
	}

	// The same users again: every request is now a cache hit. Time batches of
	// hits so each sample is well above timer granularity.
	const hitsPerProbe = 50
	hitTimes := make([]time.Duration, 0, coldProbes)
	for k := 0; k < coldProbes; k++ {
		start := time.Now()
		for j := 0; j < hitsPerProbe; j++ {
			serveOnce(t, handler, keys[k])
		}
		hitTimes = append(hitTimes, time.Since(start)/hitsPerProbe)
	}

	cold, hit := median(coldTimes), median(hitTimes)
	stats := srv.Stats()
	if stats.Hits < coldProbes*hitsPerProbe {
		t.Fatalf("expected ≥%d cache hits, stats: %+v", coldProbes*hitsPerProbe, stats)
	}
	t.Logf("online per-user latency: cold=%v cached=%v speedup=%.1fx (cache stats %+v)",
		cold, hit, float64(cold)/float64(hit), stats)
	if hit*2 > cold {
		t.Fatalf("cache hit (%v) is not ≥2× faster than cold compute (%v)", hit, cold)
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
// lock or allocation on the hot path, which costs far more than 1.5×.
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
	serveOnce(t, bareHandler, bareKey) // populate caches
	serveOnce(t, instHandler, instKey)

	const rounds, hitsPerRound = 600, 10
	timeHits := func(h http.Handler, key string, n int) time.Duration {
		start := time.Now()
		for j := 0; j < n; j++ {
			serveOnce(t, h, key)
		}
		return time.Since(start)
	}
	// The two paths take turns, ten requests at a time, and their totals are
	// compared. On a small shared box the per-request cost of either path
	// drifts between ~5µs and ~12µs in stretches of tens of milliseconds
	// (collector phases, a neighbour); two back-to-back series put such a
	// stretch on one side only and read ratios from 0.8 to 2 with nothing
	// wrong. Taking turns gives both sides the same share of every stretch,
	// while a lock or an allocation on the hot path is paid on every
	// instrumented request.
	timeHits(bareHandler, bareKey, 200) // neither side pays first-touch costs inside the timed rounds
	timeHits(instHandler, instKey, 200)
	var bareTotal, instTotal time.Duration
	for k := 0; k < rounds; k++ {
		bareTotal += timeHits(bareHandler, bareKey, hitsPerRound)
		instTotal += timeHits(instHandler, instKey, hitsPerRound)
	}
	bareHit, instHit := bareTotal/(rounds*hitsPerRound), instTotal/(rounds*hitsPerRound)

	ratio := float64(instHit) / float64(bareHit)
	t.Logf("cache-hit per-request latency: bare=%v instrumented=%v ratio=%.3f", bareHit, instHit, ratio)
	if ratio > 1.5 {
		t.Fatalf("instrumented recommend path is %.2f× the bare path (%v vs %v); budget is <5%% at the operating point, gate is 1.5×",
			ratio, instHit, bareHit)
	}
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
