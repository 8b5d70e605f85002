package simulate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"ganc/internal/persist"
	"ganc/internal/serve"
)

// LoadMix weights the traffic composition of a load run. Weights are
// relative, not percentages; a zero weight disables the endpoint.
type LoadMix struct {
	// Recommend weights GET /recommend (single-user) traffic.
	Recommend int `json:"recommend"`
	// Batch weights POST /recommend/batch traffic.
	Batch int `json:"batch"`
	// Ingest weights POST /ingest traffic. Leave 0 against servers without an
	// ingestion sink (the endpoint answers 404 there).
	Ingest int `json:"ingest"`
}

// DefaultLoadMix is a read-heavy production-like composition: mostly single
// lookups, some batches, a trickle of ingestion.
func DefaultLoadMix() LoadMix { return LoadMix{Recommend: 90, Batch: 8, Ingest: 2} }

// LoadConfig configures one closed-loop load run: Concurrency workers each
// issue a request, wait for the response, and immediately issue the next, so
// offered load adapts to the server instead of overrunning it.
type LoadConfig struct {
	// BaseURL is the target server root, e.g. "http://127.0.0.1:8080".
	BaseURL string `json:"base_url"`
	// Requests is the total request count across all workers.
	Requests int `json:"requests"`
	// Concurrency is the closed-loop worker count (default 8).
	Concurrency int `json:"concurrency"`
	// Mix composes the traffic (default DefaultLoadMix; all-zero selects it).
	Mix LoadMix `json:"mix"`
	// BatchSize is the users per /recommend/batch request (default 20).
	BatchSize int `json:"batch_size"`
	// IngestBatchSize is the events per /ingest request (default 20).
	IngestBatchSize int `json:"ingest_batch_size"`
	// RequestZipf skews request popularity over users (default 1.0).
	RequestZipf float64 `json:"request_zipf"`
	// Seed derives every worker's request and event streams.
	Seed int64 `json:"seed"`
	// Timeout bounds a single request (default 30s).
	Timeout time.Duration `json:"-"`
	// Client overrides the HTTP client (default: one built per run that keeps
	// an idle connection per worker).
	Client *http.Client `json:"-"`
}

// withDefaults fills the optional fields.
func (c LoadConfig) withDefaults() LoadConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Mix == (LoadMix{}) {
		c.Mix = DefaultLoadMix()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 20
	}
	if c.IngestBatchSize <= 0 {
		c.IngestBatchSize = 20
	}
	if c.RequestZipf <= 0 {
		c.RequestZipf = 1.0
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// LatencyStats summarizes one endpoint's latency distribution.
type LatencyStats struct {
	// Count is the number of completed requests.
	Count int `json:"count"`
	// MeanMs through MaxMs are latency figures in milliseconds.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// computeStats reduces a latency sample to its summary. The input is sorted
// in place.
func computeStats(d []time.Duration) LatencyStats {
	if len(d) == 0 {
		return LatencyStats{}
	}
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	ms := func(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }
	// Nearest-rank percentiles.
	rank := func(q float64) time.Duration {
		k := int(q*float64(len(d))+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(d) {
			k = len(d) - 1
		}
		return d[k]
	}
	sum := time.Duration(0)
	for _, x := range d {
		sum += x
	}
	return LatencyStats{
		Count:  len(d),
		MeanMs: ms(sum) / float64(len(d)),
		P50Ms:  ms(rank(0.50)),
		P95Ms:  ms(rank(0.95)),
		P99Ms:  ms(rank(0.99)),
		MaxMs:  ms(d[len(d)-1]),
	}
}

// LoadResult is the outcome of one load run.
type LoadResult struct {
	// Requests and Errors count completed calls and failures (transport
	// errors and 5xx responses; 4xx answers are client mistakes and counted
	// separately as Rejected, except 429s which are admission sheds and
	// counted as Shed).
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	Rejected int `json:"rejected"`
	// Shed counts 429 answers — requests the server's admission control
	// refused (rate limit or concurrency cap). ShedRate is Shed/Requests;
	// ShedByEndpoint breaks the 429s down per route.
	Shed           int            `json:"shed"`
	ShedRate       float64        `json:"shed_rate"`
	ShedByEndpoint map[string]int `json:"shed_by_endpoint,omitempty"`
	// DurationSec is the wall-clock span of the run.
	DurationSec float64 `json:"duration_sec"`
	// ThroughputRPS is successfully answered requests per second; failed and
	// rejected calls consume wall-clock but never count as served work.
	ThroughputRPS float64 `json:"throughput_rps"`
	// CacheHitRate is hits/(hits+misses) accumulated server-side during the
	// run (from /info deltas); -1 when the server saw no cache traffic.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheHits and CacheMisses are the raw /info deltas behind the rate.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// StartVersion and EndVersion are the serving-engine generations before
	// and after the run; they differ when ingestion traffic republished.
	StartVersion int `json:"start_version"`
	EndVersion   int `json:"end_version"`
	// Model and TopN are the target's self-reported engine name and list size
	// (from /info), authoritative even for externally driven servers.
	Model string `json:"model"`
	TopN  int    `json:"top_n"`
	// Overall aggregates every endpoint; Endpoints breaks the distribution
	// down per route. Only successful responses enter the distributions — a
	// fast 4xx or a timed-out transport call must not flatter (or poison)
	// the percentiles.
	Overall   LatencyStats            `json:"overall"`
	Endpoints map[string]LatencyStats `json:"endpoints"`
}

// endpoint indexes the per-route sample buckets.
const (
	epRecommend = iota
	epBatch
	epIngest
	epCount
)

// endpointNames maps sample buckets to route labels in the result.
var endpointNames = [epCount]string{"recommend", "batch", "ingest"}

// sample is one completed request observation.
type sample struct {
	ep   int8
	bad  bool // 5xx or transport failure
	rej  bool // 4xx other than 429
	shed bool // 429 — shed by admission control
	d    time.Duration
}

// RunLoad drives a closed loop of mixed traffic against the server at
// cfg.BaseURL, generating requests from the universe's deterministic streams,
// and reduces the observations to latency percentiles, throughput and the
// server-side cache-hit rate.
func RunLoad(ctx context.Context, u *Universe, cfg LoadConfig) (*LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("simulate: load config needs a BaseURL")
	}
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("simulate: load config needs a positive request count")
	}
	if cfg.Mix.Recommend < 0 || cfg.Mix.Batch < 0 || cfg.Mix.Ingest < 0 {
		return nil, fmt.Errorf("simulate: load mix weights must be non-negative, got %+v", cfg.Mix)
	}
	total := cfg.Mix.Recommend + cfg.Mix.Batch + cfg.Mix.Ingest
	if total <= 0 {
		return nil, fmt.Errorf("simulate: load mix selects no traffic")
	}
	client := cfg.Client
	if client == nil {
		// One idle connection per worker: http.DefaultTransport keeps two per
		// host, so a wider closed loop would re-dial on nearly every request
		// and every percentile would pay the handshakes.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns, tr.MaxIdleConnsPerHost = 0, cfg.Concurrency
		defer tr.CloseIdleConnections()
		client = &http.Client{Timeout: cfg.Timeout, Transport: tr}
	}

	before, err := fetchInfo(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("simulate: read /info before the run: %w", err)
	}

	samples := make([][]sample, cfg.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker owns a fixed request quota and seed-derived streams,
			// so the issued workload — which users are requested, which events
			// are ingested — is fully determined by (Seed, Requests,
			// Concurrency); only interleaving and timing vary run to run.
			quota := cfg.Requests / cfg.Concurrency
			if w < cfg.Requests%cfg.Concurrency {
				quota++
			}
			seed := cfg.Seed + int64(w)*7919
			rng := rand.New(rand.NewSource(seed))
			req := u.RequestStream(RequestStreamConfig{ZipfExponent: cfg.RequestZipf, Seed: seed + 1})
			evs := u.EventStream(EventStreamConfig{Seed: seed + 2})
			buf := make([]sample, 0, quota)
			for k := 0; k < quota; k++ {
				if ctx.Err() != nil {
					break
				}
				pick := rng.Intn(total)
				var s sample
				switch {
				case pick < cfg.Mix.Recommend:
					s = doRecommend(ctx, client, cfg.BaseURL, req.NextUser())
				case pick < cfg.Mix.Recommend+cfg.Mix.Batch:
					s = doBatch(ctx, client, cfg.BaseURL, req.NextUsers(cfg.BatchSize))
				default:
					s = doIngest(ctx, client, cfg.BaseURL, evs.NextBatch(cfg.IngestBatchSize))
				}
				buf = append(buf, s)
			}
			samples[w] = buf
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	after, err := fetchInfo(ctx, client, cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("simulate: read /info after the run: %w", err)
	}
	return reduce(samples, elapsed, before, after), nil
}

// reduce folds the per-worker samples and the /info deltas into a LoadResult.
func reduce(samples [][]sample, elapsed time.Duration, before, after serve.InfoResponse) *LoadResult {
	res := &LoadResult{
		DurationSec:  elapsed.Seconds(),
		StartVersion: before.Version,
		EndVersion:   after.Version,
		Model:        after.Model,
		TopN:         after.TopN,
		Endpoints:    make(map[string]LatencyStats, epCount),
		CacheHitRate: -1,
	}
	perEp := make([][]time.Duration, epCount)
	var all []time.Duration
	for _, buf := range samples {
		for _, s := range buf {
			res.Requests++
			switch {
			case s.bad:
				res.Errors++
				continue
			case s.shed:
				res.Shed++
				if res.ShedByEndpoint == nil {
					res.ShedByEndpoint = make(map[string]int, epCount)
				}
				res.ShedByEndpoint[endpointNames[s.ep]]++
				continue
			case s.rej:
				res.Rejected++
				continue
			}
			perEp[s.ep] = append(perEp[s.ep], s.d)
			all = append(all, s.d)
		}
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	res.Overall = computeStats(all)
	for ep, d := range perEp {
		if len(d) > 0 {
			res.Endpoints[endpointNames[ep]] = computeStats(d)
		}
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(all)) / elapsed.Seconds()
	}
	res.CacheHits = after.Cache.Hits - before.Cache.Hits
	res.CacheMisses = after.Cache.Misses - before.Cache.Misses
	if res.CacheHits < 0 || res.CacheMisses < 0 {
		// The /info aggregation scope shrank mid-run — a cluster target lost
		// a shard between the before and after reads (the mid-load kill
		// drill), taking its accumulated counters with it. The deltas are
		// meaningless then; report "no measurement" rather than negative
		// nonsense. StartVersion/EndVersion stay as observed for the same
		// reason — they are raw before/after readings, not deltas.
		res.CacheHits, res.CacheMisses, res.CacheHitRate = 0, 0, -1
	} else if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(lookups)
	}
	return res
}

// fetchInfo reads the server's /info snapshot.
func fetchInfo(ctx context.Context, client *http.Client, base string) (serve.InfoResponse, error) {
	var info serve.InfoResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/info", nil)
	if err != nil {
		return info, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("/info answered %d", resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// doRecommend times one GET /recommend call.
func doRecommend(ctx context.Context, client *http.Client, base, user string) sample {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/recommend?user="+url.QueryEscape(user), nil)
	if err != nil {
		return sample{ep: epRecommend, bad: true, d: time.Since(t0)}
	}
	return finish(client, req, sample{ep: epRecommend}, t0)
}

// doBatch times one POST /recommend/batch call.
func doBatch(ctx context.Context, client *http.Client, base string, users []string) sample {
	t0 := time.Now()
	body, _ := json.Marshal(serve.BatchRequest{Users: users})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/recommend/batch", bytes.NewReader(body))
	if err != nil {
		return sample{ep: epBatch, bad: true, d: time.Since(t0)}
	}
	req.Header.Set("Content-Type", "application/json")
	return finish(client, req, sample{ep: epBatch}, t0)
}

// doIngest times one POST /ingest call.
func doIngest(ctx context.Context, client *http.Client, base string, events []serve.IngestEvent) sample {
	t0 := time.Now()
	body, _ := json.Marshal(serve.IngestRequest{Events: events})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return sample{ep: epIngest, bad: true, d: time.Since(t0)}
	}
	req.Header.Set("Content-Type", "application/json")
	return finish(client, req, sample{ep: epIngest}, t0)
}

// finish executes the request, drains the body (keep-alive reuse) and stamps
// the sample.
func finish(client *http.Client, req *http.Request, s sample, t0 time.Time) sample {
	resp, err := client.Do(req)
	if err != nil {
		s.bad, s.d = true, time.Since(t0)
		return s
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.d = time.Since(t0)
	switch {
	case resp.StatusCode >= 500:
		s.bad = true
	case resp.StatusCode == http.StatusTooManyRequests:
		s.shed = true
	case resp.StatusCode >= 400:
		s.rej = true
	}
	return s
}

// --- Bench report --------------------------------------------------------------

// BenchReport is the serialized form of one bare load run (loadgen -url): the
// universe, the load shape and the measured result together, so the document
// carries its own context. It is a drill record for a person reading one run;
// the numbers the repo tracks come from `bash benchmark/run.sh`.
type BenchReport struct {
	// Universe describes the synthetic population the server held.
	Universe UniverseConfig `json:"universe"`
	// Engine is the served model's display name (from /info).
	Engine string `json:"engine"`
	// TopN is the serving list size.
	TopN int `json:"top_n"`
	// Load is the driver configuration of the run.
	Load LoadConfig `json:"load"`
	// Result is the measurement.
	Result *LoadResult `json:"result"`
}

// WriteBenchReport writes a run's record — a BenchReport, or a scenario
// run's Results — as indented JSON, atomically (the shared
// persist.AtomicWrite temp+fsync+rename sequence) so a crashed run never
// leaves a half-written document.
func WriteBenchReport(path string, rep interface{}) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("simulate: encode bench report: %w", err)
	}
	data = append(data, '\n')
	return persist.AtomicWrite(path, func(f *os.File) error {
		if _, err := f.Write(data); err != nil {
			return fmt.Errorf("simulate: write bench report: %w", err)
		}
		return nil
	})
}
