package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// updatingSink is an IngestSink that republishes a fresh engine on every
// batch — the shape internal/ingest gives the server — so POST /ingest
// exercises the versioned-swap path from the HTTP surface.
type updatingSink struct {
	srv     *Server
	applied atomic.Int64
}

func (s *updatingSink) IngestEvents(ctx context.Context, events []IngestEvent) (IngestResult, error) {
	total := s.applied.Add(int64(len(events)))
	_, recs := fixture()
	eng := &countingEngine{name: fmt.Sprintf("gen-%d", total), recs: recs}
	if err := s.srv.Update(eng); err != nil {
		return IngestResult{}, err
	}
	return IngestResult{Applied: len(events), Seq: uint64(total), Version: s.srv.Version()}, nil
}

// TestIngestPublishRacesBatchAndStats pins the regression the versioned swap
// must survive: concurrent POST /ingest publishes (each swapping in a new
// engine generation) racing POST /recommend/batch fan-out workers, single
// GET /recommend lookups and cache-stats reads. Run under -race in CI; the
// functional assertions here are that every request succeeds against some
// coherent generation and the version counter advances exactly once per
// ingest batch.
func TestIngestPublishRacesBatchAndStats(t *testing.T) {
	s, _, ts := newTestServer(t, withBatchWorkers(4))
	sink := &updatingSink{srv: s}
	s.SetIngestSink(sink)

	const (
		writers    = 4
		readers    = 4
		iterations = 40
	)
	start := make(chan struct{})
	// Sized for the worst case — every assertion firing on every iteration
	// (batch readers can send one error per result) — so a badly regressed
	// server fails loudly instead of blocking senders and hanging the test.
	errs := make(chan error, (writers+readers*8)*iterations)
	var wg sync.WaitGroup

	post := func(path string, body interface{}) (*http.Response, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		return http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
	}

	// Ingest writers: every batch swaps the engine generation.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < iterations; k++ {
				resp, err := post("/ingest", IngestRequest{Events: []IngestEvent{
					{User: "alice", Item: "alien", Value: 5},
				}})
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest writer %d: status %d", w, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}

	// Batch readers: multi-user fan-out through the worker pool.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < iterations; k++ {
				resp, err := post("/recommend/batch", BatchRequest{Users: []string{"alice", "bob", "alice", "nobody"}})
				if err != nil {
					errs <- err
					continue
				}
				var body BatchResponse
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					errs <- fmt.Errorf("batch reader %d: %v", r, err)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch reader %d: status %d", r, resp.StatusCode)
					continue
				}
				if len(body.Results) != 4 {
					errs <- fmt.Errorf("batch reader %d: %d results", r, len(body.Results))
					continue
				}
				// A result computed against any generation is fine; a result
				// claiming a version that never existed is not.
				for _, res := range body.Results {
					if res.Error == "" && (res.Version < 1 || res.Version > s.Version()) {
						errs <- fmt.Errorf("batch reader %d: impossible version %d", r, res.Version)
					}
				}
			}
		}(r)
	}

	// Single-user readers and stats readers race the same swaps.
	for r := 0; r < readers; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < iterations; k++ {
				resp, err := http.Get(ts.URL + "/recommend?user=bob")
				if err != nil {
					errs <- err
					continue
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs <- fmt.Errorf("single reader %d: status %d", r, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < iterations; k++ {
				st := s.Stats()
				if st.Hits < 0 || st.Misses < 0 || st.Size < 0 {
					errs <- fmt.Errorf("stats reader %d: negative counters %+v", r, st)
				}
				resp, err := http.Get(ts.URL + "/info")
				if err != nil {
					errs <- err
					continue
				}
				var info InfoResponse
				if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
					errs <- fmt.Errorf("info reader %d: %v", r, err)
				}
				resp.Body.Close()
			}
		}(r)
	}

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every applied batch swapped exactly one generation in.
	wantVersion := 1 + writers*iterations
	if got := s.Version(); got != wantVersion {
		t.Fatalf("version %d after %d ingest batches, want %d", got, writers*iterations, wantVersion)
	}
	if applied := sink.applied.Load(); applied != int64(writers*iterations) {
		t.Fatalf("sink applied %d events, want %d", applied, writers*iterations)
	}
}
