package ganc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// logSink is an io.Writer the test reads while handlers write to it.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

// entries decodes the sink's lines, one request each.
func (s *logSink) entries(t *testing.T) []map[string]any {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSuffix(s.buf.String(), "\n"), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("request log line %q is not JSON: %v", line, err)
		}
		out = append(out, e)
	}
	return out
}

// TestRequestLogsAcrossTheHop: a node built with WithRequestLog serves
// behind a router built with RouterConfig.RequestLog. One routed read and
// one routed batch leave one JSON line per request in each log — method,
// route, status and duration_ms, and on the node the engine version that
// answered.
func TestRequestLogsAcrossTheHop(t *testing.T) {
	p, u := clusterTestPipeline(t)
	var nodeLog, routerLog logSink
	node, err := OpenShardNode(p, ShardIdentity{NumShards: 1, RingEpoch: 1},
		filepath.Join(t.TempDir(), "node.wal"), "", 0, WithRequestLog(NewRequestLogger(&nodeLog)))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ts := httptest.NewServer(node.Handler())
	defer ts.Close()
	addr, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(1, []ShardInfo{{ID: 0, Addr: addr.Host}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, RequestLog: NewRequestLogger(&routerLog)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	users := []string{u.Train().UserInterner().Key(0), u.Train().UserInterner().Key(1)}
	batch, err := json.Marshal(map[string][]string{"users": users})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/recommend?user="+users[0], nil),
		httptest.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(batch)),
	} {
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s answered %d: %s", req.Method, req.URL, w.Code, w.Body)
		}
	}

	want := []struct{ method, route string }{{"GET", "/recommend"}, {"POST", "/recommend/batch"}}
	for _, log := range []struct {
		name    string
		sink    *logSink
		version bool
	}{{"router", &routerLog, false}, {"node", &nodeLog, true}} {
		entries := log.sink.entries(t)
		if len(entries) != len(want) {
			t.Fatalf("%s log holds %d lines for %d requests: %v", log.name, len(entries), len(want), entries)
		}
		for k, e := range entries {
			if e["method"] != want[k].method || e["route"] != want[k].route || e["status"] != float64(http.StatusOK) {
				t.Errorf("%s log line %d reads %v, want %s %s 200", log.name, k, e, want[k].method, want[k].route)
			}
			if d, ok := e["duration_ms"].(float64); !ok || d < 0 {
				t.Errorf("%s log line %d carries duration_ms %v", log.name, k, e["duration_ms"])
			}
			if v, ok := e["version"]; log.version && v != float64(1) || !log.version && ok {
				t.Errorf("%s log line %d carries version %v", log.name, k, v)
			}
		}
	}
}
