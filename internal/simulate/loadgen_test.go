package simulate

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ganc/internal/admit"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// echoEngine answers every user with a fixed list, counting computes.
type echoEngine struct {
	computes atomic.Int64
}

func (e *echoEngine) Name() string { return "echo" }

func (e *echoEngine) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	e.computes.Add(1)
	return types.TopNSet{0}, nil
}

// countingSink applies batches by counting them (no engine swap).
type countingSink struct {
	events atomic.Int64
}

func (s *countingSink) IngestEvents(ctx context.Context, events []serve.IngestEvent) (serve.IngestResult, error) {
	s.events.Add(int64(len(events)))
	return serve.IngestResult{Applied: len(events), Seq: uint64(s.events.Load())}, nil
}

// TestRunLoadMixedTraffic drives the closed loop against a real serve.Server
// and checks the bookkeeping: request accounting, per-endpoint buckets,
// cache-hit measurement and zero errors on a healthy server.
func TestRunLoadMixedTraffic(t *testing.T) {
	u, err := NewUniverse(TinyConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	eng := &echoEngine{}
	srv, err := serve.New(u.Train(), eng, 5)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	srv.SetIngestSink(sink)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := RunLoad(context.Background(), u, LoadConfig{
		BaseURL:         ts.URL,
		Requests:        300,
		Concurrency:     4,
		Mix:             LoadMix{Recommend: 6, Batch: 2, Ingest: 2},
		BatchSize:       5,
		IngestBatchSize: 3,
		Seed:            13,
		Client:          ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 300 {
		t.Fatalf("completed %d requests, want 300", res.Requests)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("errors=%d rejected=%d on a healthy server", res.Errors, res.Rejected)
	}
	total := 0
	for ep, st := range res.Endpoints {
		if st.Count == 0 {
			t.Fatalf("endpoint %s has an empty bucket", ep)
		}
		if st.P50Ms < 0 || st.P99Ms < st.P50Ms || st.MaxMs < st.P99Ms {
			t.Fatalf("endpoint %s has inconsistent percentiles: %+v", ep, st)
		}
		total += st.Count
	}
	if total != res.Overall.Count || total != 300 {
		t.Fatalf("endpoint buckets sum to %d, overall %d", total, res.Overall.Count)
	}
	if len(res.Endpoints) != 3 {
		t.Fatalf("expected all three endpoints in the mix, got %v", res.Endpoints)
	}
	if res.ThroughputRPS <= 0 || res.DurationSec <= 0 {
		t.Fatalf("throughput %v over %vs", res.ThroughputRPS, res.DurationSec)
	}
	if sink.events.Load() == 0 {
		t.Fatal("ingest traffic never reached the sink")
	}
	// The universe has 60 users and the cache is unbounded by default, so
	// repeated hot users must produce hits.
	if res.CacheHitRate <= 0 || res.CacheHitRate >= 1 {
		t.Fatalf("cache hit rate %v, want within (0,1)", res.CacheHitRate)
	}
	if res.CacheHits+res.CacheMisses == 0 {
		t.Fatal("no cache lookups measured")
	}
}

// TestRunLoadShedTracking drives an admission-limited server and checks the
// 429 bookkeeping: sheds counted apart from errors and rejections, broken
// down per endpoint, and excluded from the latency distributions.
func TestRunLoadShedTracking(t *testing.T) {
	u, err := NewUniverse(TinyConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	eng := &echoEngine{}
	srv, err := serve.New(u.Train(), eng, 5,
		serve.WithAdmission(admit.Config{RatePerSec: 1, Burst: 10}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// All driver workers share one client key (the loopback remote host), so
	// 120 requests against a burst of 10 must drain the bucket and shed.
	res, err := RunLoad(context.Background(), u, LoadConfig{
		BaseURL:     ts.URL,
		Requests:    120,
		Concurrency: 4,
		Mix:         LoadMix{Recommend: 9, Batch: 1},
		Seed:        17,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Rejected != 0 {
		t.Fatalf("errors=%d rejected=%d; 429s must not count as either", res.Errors, res.Rejected)
	}
	if res.Shed == 0 {
		t.Fatal("no sheds recorded against a burst-10 rate limit")
	}
	if got := res.Overall.Count + res.Shed; got != res.Requests {
		t.Fatalf("served %d + shed %d = %d, want %d", res.Overall.Count, res.Shed, got, res.Requests)
	}
	if want := float64(res.Shed) / float64(res.Requests); res.ShedRate != want {
		t.Fatalf("shed rate %v, want %v", res.ShedRate, want)
	}
	byEp := 0
	for _, n := range res.ShedByEndpoint {
		byEp += n
	}
	if byEp != res.Shed {
		t.Fatalf("per-endpoint sheds sum to %d, total %d", byEp, res.Shed)
	}
}

// TestRunLoadReusesConnections pins the default client's idle pool to the
// worker count: a closed loop of N workers needs N connections (one of which
// also carried the /info probe), not a fresh dial whenever more than
// http.DefaultTransport's two idle connections per host are in flight. The
// handler holds each worker's first request until all of them have arrived,
// so every first dial lands before any worker finishes (one that finishes
// early hands its connection to a worker still dialing and then dials again
// itself); from the release on the count is exact, not a matter of timing.
func TestRunLoadReusesConnections(t *testing.T) {
	u, err := NewUniverse(TinyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var dials, arrived atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/info" {
			json.NewEncoder(w).Encode(serve.InfoResponse{Version: 1})
			return
		}
		if arrived.Add(1) == workers {
			close(release)
		}
		<-release
		w.Write([]byte("{}"))
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	res, err := RunLoad(context.Background(), u, LoadConfig{
		BaseURL:     ts.URL,
		Requests:    4000,
		Concurrency: workers,
		Mix:         LoadMix{Recommend: 1},
		Seed:        29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Overall.Count != 4000 {
		t.Fatalf("load: %d errors, %d served of 4000", res.Errors, res.Overall.Count)
	}
	if n := dials.Load(); n > workers+1 {
		t.Fatalf("%d workers opened %d connections over 4000 requests, want at most %d (workers + the /info probe)", workers, n, workers+1)
	}
}

// TestRunLoadValidation pins the config error paths.
func TestRunLoadValidation(t *testing.T) {
	u, err := NewUniverse(TinyConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := RunLoad(ctx, u, LoadConfig{Requests: 10}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := RunLoad(ctx, u, LoadConfig{BaseURL: "http://x"}); err == nil {
		t.Fatal("zero request count accepted")
	}
	if _, err := RunLoad(ctx, u, LoadConfig{BaseURL: "http://x", Requests: 1, Mix: LoadMix{Recommend: -1, Batch: 1}}); err == nil {
		t.Fatal("empty mix accepted")
	}
}

// TestWriteBenchReport checks the artifact round-trips as JSON.
func TestWriteBenchReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	rep := &BenchReport{
		Universe: TinyConfig(3),
		Engine:   "echo",
		TopN:     5,
		Load:     LoadConfig{Requests: 10}.withDefaults(),
		Result:   &LoadResult{Requests: 10, CacheHitRate: 0.5},
	}
	if err := WriteBenchReport(path, rep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Engine != "echo" || back.Result.Requests != 10 || back.Load.Concurrency != 8 {
		t.Fatalf("report did not round-trip: %+v", back)
	}
}
