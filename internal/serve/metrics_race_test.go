package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"ganc/internal/obs"
)

// stubSink absorbs ingest batches and reports them applied.
type stubSink struct{ applied atomic.Int64 }

func (s *stubSink) IngestEvents(_ context.Context, events []IngestEvent) (IngestResult, error) {
	seq := s.applied.Add(int64(len(events)))
	return IngestResult{Applied: len(events), Seq: uint64(seq), Version: 1}, nil
}

// scrape fetches and strictly parses /metrics.
func scrape(t *testing.T, url string) *obs.Scrape {
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
		t.Fatalf("/metrics body failed strict parse: %v", err)
	}
	return sc
}

// TestMetricsExactUnderConcurrency pins the counter-accounting contract: with
// recommend, batch and ingest traffic racing engine swaps and concurrent
// /metrics scrapes (run it with -race), the final scrape must account for
// every request exactly — per-route totals, cache-path splits summing to the
// number of recommend() calls, applied ingest events, and the version/swap
// counters agreeing across a swap.
func TestMetricsExactUnderConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, ts := newTestServer(t, WithMetrics(reg))
	sink := &stubSink{}
	s.SetIngestSink(sink)

	const (
		recommendWorkers = 4
		recommendPer     = 50
		batchWorkers     = 2
		batchPer         = 10
		batchUsers       = 2
		ingestWorkers    = 2
		ingestPer        = 10
		ingestEvents     = 3
		scrapers         = 2
		swaps            = 5
	)

	var wg sync.WaitGroup
	for w := 0; w < recommendWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			users := []string{"alice", "bob"}
			for i := 0; i < recommendPer; i++ {
				resp, err := http.Get(ts.URL + "/recommend?user=" + users[(w+i)%2])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < batchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := []byte(`{"users":["alice","bob"]}`)
			for i := 0; i < batchPer; i++ {
				resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ingestPer; i++ {
				body := fmt.Sprintf(`{"events":[{"user":"u%d-%d","item":"a","value":1},{"user":"x","item":"b","value":1},{"user":"y","item":"c","value":1}]}`, w, i)
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				scrape(t, ts.URL) // mid-traffic scrapes must always parse
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d, recs := fixture()
		_ = d
		for i := 0; i < swaps; i++ {
			if err := s.Update(&countingEngine{name: "swapped", recs: recs}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	sc := scrape(t, ts.URL)
	recommendReqs := float64(recommendWorkers * recommendPer)
	batchReqs := float64(batchWorkers * batchPer)
	ingestReqs := float64(ingestWorkers * ingestPer)

	if got := sc.SumByPrefix("ganc_http_requests_total", obs.L("route", "/recommend")); got != recommendReqs {
		t.Errorf("recommend requests_total = %v, want %v", got, recommendReqs)
	}
	if got := sc.SumByPrefix("ganc_http_requests_total", obs.L("route", "/recommend/batch")); got != batchReqs {
		t.Errorf("batch requests_total = %v, want %v", got, batchReqs)
	}
	if got := sc.SumByPrefix("ganc_http_requests_total", obs.L("route", "/ingest")); got != ingestReqs {
		t.Errorf("ingest requests_total = %v, want %v", got, ingestReqs)
	}
	if got, ok := sc.Value("ganc_http_request_duration_seconds_count", obs.L("route", "/recommend")); !ok || got != recommendReqs {
		t.Errorf("recommend latency count = %v (ok %v), want %v", got, ok, recommendReqs)
	}

	// Every recommend() call lands in exactly one of hit/miss, and the split
	// is nondeterministic under concurrent misses and swaps — but the sum is
	// exact.
	hits, _ := sc.Value("ganc_cache_hits_total")
	misses, _ := sc.Value("ganc_cache_misses_total")
	wantCalls := recommendReqs + batchReqs*batchUsers
	if hits+misses != wantCalls {
		t.Errorf("hit+miss = %v+%v = %v, want %v", hits, misses, hits+misses, wantCalls)
	}
	if misses < 1 {
		t.Errorf("expected at least one cold miss, got %v", misses)
	}

	if got, ok := sc.Value("ganc_batch_users_total"); !ok || got != batchReqs*batchUsers {
		t.Errorf("batch_users_total = %v, want %v", got, batchReqs*batchUsers)
	}
	if got, ok := sc.Value("ganc_ingest_events_total"); !ok || got != ingestReqs*ingestEvents {
		t.Errorf("ingest_events_total = %v, want %v", got, ingestReqs*ingestEvents)
	}
	if got, ok := sc.Value("ganc_engine_swaps_total"); !ok || got != swaps {
		t.Errorf("engine_swaps_total = %v, want %v", got, swaps)
	}
	if got, ok := sc.Value("ganc_engine_version"); !ok || got != swaps+1 {
		t.Errorf("engine_version = %v, want %v", got, swaps+1)
	}
	if n := sc.SumByPrefix("ganc_http_requests_total", obs.L("route", "/metrics")); n < float64(scrapers*20) {
		t.Errorf("metrics route should itself be instrumented: %v", n)
	}
}
