package ganc

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// Allocations of a routed cached read and of a routed 20-user batch over two
// shards, counted across the router, its hop to the shards' real listeners
// and the shards' hit path, by architecture: a word size moves what the
// runtime and the standard library allocate. Where a change moves either
// count, it is re-pinned with the reason beside it.
//
// batch20 was 190 on amd64 and 179 on 386 while the router decoded each
// shard's answer into one json.RawMessage per element and re-encoded the merge
// through json.Encoder; it splits the answer at its envelope
// (serve.SplitBatch) and appends the merge into one buffer now.
var routedAllocs = map[string]struct{ hit, batch20 float64 }{
	"amd64": {23, 155},
	"386":   {23, 146},
}

// discardWriter is a ResponseWriter that keeps the status and drops the body.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestRoutedHitAllocs pins what one routed cache hit and one routed batch of
// 20 cache hits allocate, end to end below the client: the router's handler,
// the hop's frames over loopback to the owning shards, and each shard's
// handler. A replica-less cluster runs no detector, so nothing else allocates
// meanwhile.
func TestRoutedHitAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	pins, ok := routedAllocs[runtime.GOARCH]
	if !ok {
		t.Skipf("no allocation counts are pinned for %s", runtime.GOARCH)
	}
	p, u := clusterTestPipeline(t)
	c, err := NewCluster(p, WithShards(2), WithClusterDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	users := make([]string, 20)
	owners := map[int]bool{}
	for k := range users {
		users[k] = u.Train().UserInterner().Key(int32(k))
		owners[c.OwnerShard(users[k])] = true
	}
	if len(owners) != 2 {
		t.Fatalf("the batch spans %d shards, want both", len(owners))
	}
	batch, err := json.Marshal(map[string][]string{"users": users})
	if err != nil {
		t.Fatal(err)
	}
	// Every list is cached before anything is counted.
	warm := httptest.NewRecorder()
	h.ServeHTTP(warm, httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(batch)))
	if warm.Code != http.StatusOK {
		t.Fatalf("warming batch answered %d: %s", warm.Code, warm.Body)
	}

	w := &discardWriter{header: make(http.Header)}
	read := httptest.NewRequest(http.MethodGet, "/recommend?user="+users[0], nil)
	body := bytes.NewReader(batch)
	post := httptest.NewRequest(http.MethodPost, "/recommend/batch", nil)
	post.Body = io.NopCloser(body)
	serve := func(req *http.Request) func() {
		return func() {
			body.Reset(batch)
			clear(w.header)
			w.status = 0
			h.ServeHTTP(w, req)
			if w.status != 0 && w.status != http.StatusOK {
				t.Fatalf("%s %s answered %d", req.Method, req.URL, w.status)
			}
		}
	}
	const runs = 500
	for _, gate := range []struct {
		name string
		req  *http.Request
		want float64
	}{
		{"routed cached read", read, pins.hit},
		{"routed batch of 20 cached users", post, pins.batch20},
	} {
		if got := testing.AllocsPerRun(runs, serve(gate.req)); got != gate.want {
			t.Errorf("%s: %v allocations, pinned at %v", gate.name, got, gate.want)
		}
	}
}
