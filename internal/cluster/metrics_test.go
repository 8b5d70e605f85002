package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ganc/internal/admit"
	"ganc/internal/dataset"
	"ganc/internal/obs"
	"ganc/internal/serve"
)

// scrapeRouter fetches and strictly parses the router's /metrics.
func scrapeRouter(t *testing.T, url string) *obs.Scrape {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	sc, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("router /metrics failed strict parse: %v", err)
	}
	return sc
}

// TestRouterMetrics drives reads through an instrumented router and checks
// the scrape: per-shard fan-out counters accounting for every shard call,
// per-route HTTP series, zeroed epoch-mismatch gauges, and the router's own
// admission series.
func TestRouterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	rt, _ := clusterFixture(t, 3, func(cfg *RouterConfig) {
		cfg.Metrics = reg
		cfg.Admission = admit.Config{MaxConcurrent: 64}
	})
	ts := routerServer(t, rt)

	const reads = 20
	wantFanout := 0
	for u := 0; u < reads; u++ {
		var out serve.RecommendResponse
		if code := getJSON(t, ts.URL+"/recommend?user=user-"+strconv.Itoa(u), &out); code != http.StatusOK {
			t.Fatalf("read %d = %d", u, code)
		}
		wantFanout++
	}
	users := make([]string, 40)
	owners := map[int]bool{}
	for u := range users {
		users[u] = fmt.Sprintf("user-%d", u)
		owners[rt.Owner(users[u])] = true
	}
	var batch BatchResponse
	if code := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: users}, &batch); code != http.StatusOK {
		t.Fatalf("batch = %d", code)
	}
	wantFanout += len(owners) // one sub-batch call per owning shard

	sc := scrapeRouter(t, ts.URL)
	var fanout float64
	for i := 0; i < 3; i++ {
		v, _ := sc.Value("ganc_router_fanout_total", obs.L("shard", strconv.Itoa(i)))
		fanout += v
		if mm, ok := sc.Value("ganc_router_epoch_mismatch", obs.L("shard", strconv.Itoa(i))); !ok || mm != 0 {
			t.Errorf("epoch mismatch gauge shard %d = %v, %v (want 0)", i, mm, ok)
		}
	}
	if fanout != float64(wantFanout) {
		t.Errorf("fanout total = %v, want %d", fanout, wantFanout)
	}
	if v := sc.SumByPrefix("ganc_http_requests_total", obs.L("route", "/recommend")); v != reads {
		t.Errorf("router /recommend requests_total = %v, want %d", v, reads)
	}
	if v, ok := sc.Value("ganc_http_request_duration_seconds_count", obs.L("route", "/recommend/batch")); !ok || v != 1 {
		t.Errorf("batch latency count = %v, %v", v, ok)
	}
	if v, ok := sc.Value("ganc_admission_admitted_total"); !ok || v != reads+1 {
		t.Errorf("router admitted_total = %v, %v (want %d)", v, ok, reads+1)
	}
	if v, ok := sc.Value("ganc_router_retries_total", obs.L("shard", "0")); !ok || v != 0 {
		t.Errorf("retries shard 0 = %v, %v", v, ok)
	}
}

// TestRouterHealthSurfacesShardAdmission stands up shards with their own
// admission controllers, drives one into shedding, and checks the router's
// aggregated /health reports the per-shard shed count and saturation.
func TestRouterHealthSurfacesShardAdmission(t *testing.T) {
	const n = 2
	infos := make([]ShardInfo, n)
	shardURLs := make([]string, n)
	for i := 0; i < n; i++ {
		b := dataset.NewBuilder("tiny", 4)
		b.Add("user-0", "item-0", 5)
		d := b.Build()
		eng := &echoEngine{name: "echo", items: 1}
		srv, err := serve.New(d, eng, 1,
			serve.WithShardIdentity(serve.ShardIdentity{ShardID: i, NumShards: n, RingEpoch: 1}),
			serve.WithAdmission(admit.Config{RatePerSec: 0.0001, Burst: 1, MaxConcurrent: 4}))
		if err != nil {
			t.Fatal(err)
		}
		hts := httptest.NewServer(srv.Handler())
		t.Cleanup(hts.Close)
		shardURLs[i] = hts.URL
		infos[i] = ShardInfo{ID: i, Addr: strings.TrimPrefix(hts.URL, "http://")}
	}
	ring, err := NewRing(1, 0, infos)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, probeTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := routerServer(t, rt)

	// Exhaust shard 0's burst directly: first admitted, second shed.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(shardURLs[0] + "/recommend?user=user-0")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var health HealthResponse
	if code := getJSON(t, ts.URL+"/health", &health); code != http.StatusOK {
		t.Fatalf("/health = %d", code)
	}
	if health.Status != "ok" || len(health.Admission) != n {
		t.Fatalf("health = %+v, want ok with %d admission rows", health, n)
	}
	var shard0 *ShardAdmission
	for i := range health.Admission {
		if health.Admission[i].Shard == 0 {
			shard0 = &health.Admission[i]
		}
	}
	if shard0 == nil || shard0.Shed < 1 || shard0.RateLimited < 1 {
		t.Fatalf("shard 0 admission row = %+v, want shed >= 1", shard0)
	}
	if shard0.MaxConcurrent != 4 {
		t.Fatalf("shard 0 max_concurrent = %d, want 4", shard0.MaxConcurrent)
	}
}
