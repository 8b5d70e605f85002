package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	c.Add(-1)         // dropped
	c.Add(math.NaN()) // dropped
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter after bad adds = %v, want 3.5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", L("route", "/x"), L("code", "200"))
	b := r.Counter("dup_total", "h", L("code", "200"), L("route", "/x"))
	if a != b {
		t.Fatal("same name+labels (different order) should return the same counter")
	}
	other := r.Counter("dup_total", "h", L("route", "/y"))
	if a == other {
		t.Fatal("different labels must be a different series")
	}
}

func TestRegistryKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "h").Inc()
	r.Gauge("clash", "h").Set(2)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("kind collision produced invalid text: %v\n", err)
	}
	if sc.Types["clash"] != "counter" {
		t.Fatalf("clash type = %q, want counter", sc.Types["clash"])
	}
	if sc.Types["clash_gauge"] != "gauge" {
		t.Fatalf("collision rename missing: types = %v", sc.Types)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hb_seconds", "buckets", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.9, 5, math.NaN()} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// le semantics, as a scraper reads them: a bucket counts every
	// observation at or below its bound (0.1 falls in le="0.1"), +Inf counts
	// the overflow too, and NaN is dropped from every series.
	for _, b := range []struct {
		le   string
		want float64
	}{{"0.1", 2}, {"0.5", 3}, {"1", 4}, {"+Inf", 5}} {
		if v, ok := sc.Value("hb_seconds_bucket", L("le", b.le)); !ok || v != b.want {
			t.Fatalf("bucket le=%s = %v (present %v), want %v", b.le, v, ok, b.want)
		}
	}
	if v, ok := sc.Value("hb_seconds_count"); !ok || v != 5 {
		t.Fatalf("count = %v, want 5 (NaN dropped)", v)
	}
	if v, ok := sc.Value("hb_seconds_sum"); !ok || math.Abs(v-6.35) > 1e-9 {
		t.Fatalf("sum = %v, want 6.35", v)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(seed + float64(i)*1e-6)
			}
		}(float64(w) * 0.001)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_requests_total", "requests", L("route", "/recommend"), L("code", "200")).Add(42)
	r.Gauge("rt_version", "engine version").Set(3)
	r.GaugeFunc("rt_func_gauge", "live value", func() float64 { return 1.25 })
	r.Counter("rt_escapes_total", `tricky "help" with \ and newline`, L("v", "a\"b\\c\nd")).Inc()
	h := r.Histogram("rt_latency_seconds", "latency", []float64{0.1, 1}, L("route", "/recommend"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("rendered text failed to parse: %v\nbody:\n%s", err, buf.String())
	}
	if v, ok := sc.Value("rt_requests_total", L("route", "/recommend"), L("code", "200")); !ok || v != 42 {
		t.Fatalf("rt_requests_total = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_version"); !ok || v != 3 {
		t.Fatalf("rt_version = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_func_gauge"); !ok || v != 1.25 {
		t.Fatalf("rt_func_gauge = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_escapes_total", L("v", "a\"b\\c\nd")); !ok || v != 1 {
		t.Fatalf("escaped label round-trip failed: %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_latency_seconds_bucket", L("route", "/recommend"), L("le", "0.1")); !ok || v != 1 {
		t.Fatalf("bucket le=0.1 = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_latency_seconds_bucket", L("route", "/recommend"), L("le", "+Inf")); !ok || v != 3 {
		t.Fatalf("bucket le=+Inf = %v, %v", v, ok)
	}
	if v, ok := sc.Value("rt_latency_seconds_count", L("route", "/recommend")); !ok || v != 3 {
		t.Fatalf("histogram count = %v, %v", v, ok)
	}
	if sc.Types["rt_latency_seconds"] != "histogram" {
		t.Fatalf("types = %v", sc.Types)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("handler_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	sc, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("handler_total"); !ok || v != 1 {
		t.Fatalf("handler_total = %v, %v", v, ok)
	}

	post, err := http.Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", post.StatusCode)
	}
}

func TestParseTextRejects(t *testing.T) {
	bad := []string{
		"1bad_name 5\n",
		"name{l=\"unterminated} 5\n",
		"name{l=\"bad\\x\"} 5\n",
		"name{=\"v\"} 5\n",
		"name notafloat\n",
		"# TYPE dup counter\ndup 1\n# TYPE dup gauge\n",
		"# TYPE x flotsam\n",
	}
	for _, body := range bad {
		if _, err := ParseText(strings.NewReader(body)); err == nil {
			t.Errorf("ParseText accepted malformed body %q", body)
		}
	}
}

func TestHTTPMiddleware(t *testing.T) {
	r := NewRegistry()
	var logBuf bytes.Buffer
	logger := NewRequestLogger(&logBuf)
	shard := 2
	hm := NewHTTPMetrics(r, logger, func(*http.Request) (*int, int, string) {
		return &shard, 7, "client-a"
	}, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("/recommend", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok")) // implicit 200
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	})
	srv := httptest.NewServer(hm.Wrap(mux))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/recommend")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(srv.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("ganc_http_requests_total", L("route", "/recommend"), L("code", "200")); !ok || v != 3 {
		t.Fatalf("recommend 200s = %v, %v", v, ok)
	}
	if v, ok := sc.Value("ganc_http_requests_total", L("route", "/ingest"), L("code", "400")); !ok || v != 1 {
		t.Fatalf("ingest 400s = %v, %v", v, ok)
	}
	if v, ok := sc.Value("ganc_http_requests_total", L("route", "other"), L("code", "404")); !ok || v != 1 {
		t.Fatalf("unknown route should collapse to other: %v, %v", v, ok)
	}
	if v, ok := sc.Value("ganc_http_request_duration_seconds_count", L("route", "/recommend")); !ok || v != 3 {
		t.Fatalf("latency count = %v, %v", v, ok)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("request log lines = %d, want 5:\n%s", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if entry["route"] != "/recommend" || entry["level"] != "info" || entry["status"] != float64(200) {
		t.Fatalf("unexpected log entry: %v", entry)
	}
	if entry["shard"] != float64(2) || entry["version"] != float64(7) || entry["client"] != "client-a" {
		t.Fatalf("meta fields missing: %v", entry)
	}
	var warn map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &warn); err != nil {
		t.Fatal(err)
	}
	if warn["level"] != "warn" || warn["status"] != float64(400) {
		t.Fatalf("4xx should log at warn: %v", warn)
	}
}

// TestRequestLoggerNilDiscards: a nil logger, and one over a nil writer,
// discard an entry without panicking.
func TestRequestLoggerNilDiscards(t *testing.T) {
	var nilLogger *RequestLogger
	nilLogger.Log(LevelError, RequestEntry{})
	NewRequestLogger(nil).Log(LevelError, RequestEntry{})
}
