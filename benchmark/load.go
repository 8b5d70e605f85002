package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ganc"
	"ganc/internal/serve"
	"ganc/internal/simulate"
)

// Operation classes of the serving workloads.
const (
	opRead   = iota // GET /recommend
	opBatch         // POST /recommend/batch
	opIngest        // POST /ingest
	opCount
)

var opNames = [opCount]string{"recommend", "batch", "ingest"}

// mix weights the three operation classes (relative, not percentages).
type mix [opCount]int

// pattern is the mix as a fixed cycle of operation classes, each class spread
// evenly over it: 90/8/2 becomes fifty slots holding 45 reads, 4 batches and
// 1 ingest. Clients repeat the cycle, so any whole number of cycles is the
// same work, which is what makes one block of a window comparable to another.
func (mx mix) pattern() []int {
	g := 0
	for _, w := range mx {
		for a, b := g, w; ; a, b = b, a%b {
			if b == 0 {
				g = a
				break
			}
		}
	}
	var counts [opCount]int
	total := 0
	for op, w := range mx {
		counts[op] = w / g
		total += counts[op]
	}
	// Slot i goes to the class furthest behind its even share.
	out := make([]int, 0, total)
	var placed [opCount]int
	for i := 1; i <= total; i++ {
		best, bestLag := 0, -1.0
		for op := range counts {
			if lag := float64(i*counts[op])/float64(total) - float64(placed[op]); counts[op] > 0 && lag > bestLag {
				best, bestLag = op, lag
			}
		}
		placed[best]++
		out = append(out, best)
	}
	return out
}

// loadConfig is one closed-loop window: each client sends its next request
// only after the previous answer is complete, until the deadline.
type loadConfig struct {
	base    string // e.g. http://127.0.0.1:4711
	clients int
	mix     mix
	window  time.Duration
	seed    int64
	// blockReads sizes a block: the fewest whole cycles of the pattern that
	// hold this many reads for each client (a thousand, so a block supports
	// a p99).
	blockReads int
	// heavy is the workload's heaviest operation class.
	heavy int
	// clusterIngest selects the router's /ingest answer shape (no global seq).
	clusterIngest bool
	// tr, when enabled, gets a client span per request and the request id is
	// sent in reqHeader.
	tr *tracer
}

// loadResult is what the clients observed.
type loadResult struct {
	elapsed    time.Duration // the blocks' lengths added up: the time the load ran
	attempted  int
	failed     int
	firstError string
	lat        [opCount][]time.Duration
	blocks     []block
	respBytes  int64
	eventsSent int
	// lastSeq is the highest ingest cursor a single node acknowledged.
	lastSeq uint64
}

func (r *loadResult) ok() int { return r.attempted - r.failed }

func (r *loadResult) fail(format string, args ...interface{}) {
	r.failed++
	if r.firstError == "" {
		r.firstError = fmt.Sprintf(format, args...)
	}
}

// newHTTPClient returns a client holding one keep-alive connection, as a
// caller that waits for each reply does.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute},
	}
}

// runLoad drives the window, block by block. In a block every client sends
// the same whole number of cycles of the pattern, each its next request only
// after the previous answer is complete; between blocks the clients wait
// while the reference work is timed on an otherwise idle program. The request
// sequence of client k is a pure function of (seed, k); only how many blocks
// fit the window varies run to run.
func runLoad(u *ganc.Universe, cfg loadConfig) *loadResult {
	pattern := cfg.mix.pattern()
	readsPerCycle := 0
	for _, op := range pattern {
		if op == opRead {
			readsPerCycle++
		}
	}
	blockOps := len(pattern) * ((cfg.blockReads + readsPerCycle - 1) / readsPerCycle)
	clients := make([]*client, cfg.clients)
	for k := range clients {
		seed := cfg.seed + int64(k)*7919
		clients[k] = &client{http: newHTTPClient(), base: cfg.base, tr: cfg.tr, res: &loadResult{}, clusterIngest: cfg.clusterIngest,
			pattern: pattern,
			reqs:    u.RequestStream(ganc.RequestStreamConfig{ZipfExponent: requestZipf, Seed: seed + 1}),
			evs:     u.EventStream(ganc.EventStreamConfig{Seed: seed + 2})}
		defer clients[k].http.CloseIdleConnections()
	}
	out := &loadResult{}
	watch := newStopwatch(1)
	for deadline := time.Now().Add(cfg.window); len(out.blocks) == 0 || time.Now().Before(deadline); {
		var marks [][opCount]int
		for _, c := range clients {
			marks = append(marks, c.marks())
		}
		from := readCPUTick()
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.send(blockOps)
			}(c)
		}
		wg.Wait()
		to := readCPUTick()
		b := block{stretch: watch.stretch(to.at.Sub(from.at), to.cpu-from.cpu)}
		for k, c := range clients {
			for op := range c.res.lat {
				fresh := c.res.lat[op][marks[k][op]:]
				b.ops += len(fresh)
				if op == opRead {
					b.reads = append(b.reads, fresh...)
				}
				if op == cfg.heavy {
					b.heavy = append(b.heavy, fresh...)
				}
			}
		}
		out.blocks = append(out.blocks, b)
		out.elapsed += b.length
	}
	for _, c := range clients {
		r := c.res
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstError == "" {
			out.firstError = r.firstError
		}
		for op := range r.lat {
			out.lat[op] = append(out.lat[op], r.lat[op]...)
		}
		out.respBytes += r.respBytes
		out.eventsSent += r.eventsSent
		if r.lastSeq > out.lastSeq {
			out.lastSeq = r.lastSeq
		}
	}
	return out
}

// client issues and checks requests for one closed-loop worker.
type client struct {
	http          *http.Client
	base          string
	tr            *tracer
	res           *loadResult
	clusterIngest bool

	pattern []int
	next    int // position in the pattern
	reqs    *simulate.RequestStream
	evs     *simulate.EventStream
}

// send issues the next n requests of the pattern.
func (c *client) send(n int) {
	for ; n > 0; n-- {
		switch c.pattern[c.next%len(c.pattern)] {
		case opRead:
			c.recommend(c.reqs.NextUser())
		case opBatch:
			c.batch(c.reqs.NextUsers(batchUsers))
		default:
			c.ingest(c.evs.NextBatch(ingestEvents))
		}
		c.next++
	}
}

// marks is how many latencies of each class the client holds so far.
func (c *client) marks() (m [opCount]int) {
	for op := range c.res.lat {
		m[op] = len(c.res.lat[op])
	}
	return m
}

// do sends one request and returns the complete body. Latency runs from just
// before the send until the last body byte; checking happens after.
func (c *client) do(op int, method, path string, payload []byte) ([]byte, bool) {
	c.res.attempted++
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, body)
	if err != nil {
		c.res.fail("%s: %v", opNames[op], err)
		return nil, false
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var id int64
	traced := c.tr.enabled()
	if traced {
		id = c.tr.newID()
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.res.fail("%s: %v", opNames[op], err)
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if traced {
		c.tr.add(id, 0, id, "client."+opNames[op], start, end)
	}
	if err != nil {
		c.res.fail("%s: reading body: %v", opNames[op], err)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		c.res.fail("%s: status %d: %.200s", opNames[op], resp.StatusCode, data)
		return nil, false
	}
	c.res.lat[op] = append(c.res.lat[op], end.Sub(start))
	c.res.respBytes += int64(len(data))
	return data, true
}

func (c *client) recommend(user string) {
	data, ok := c.do(opRead, http.MethodGet, "/recommend?user="+url.QueryEscape(user), nil)
	if !ok {
		return
	}
	var r serve.RecommendResponse
	if err := json.Unmarshal(data, &r); err != nil || r.User != user || len(r.Items) != topN {
		c.undo(opRead, "recommend %s: want %d items, got %.200s (err %v)", user, topN, data, err)
	}
}

func (c *client) batch(users []string) {
	payload, _ := json.Marshal(serve.BatchRequest{Users: users}) // a []string always encodes
	data, ok := c.do(opBatch, http.MethodPost, "/recommend/batch", payload)
	if !ok {
		return
	}
	var r serve.BatchResponse
	if err := json.Unmarshal(data, &r); err != nil || len(r.Results) != len(users) {
		c.undo(opBatch, "batch: want %d results, got %.200s (err %v)", len(users), data, err)
		return
	}
	for k, res := range r.Results {
		if res.User != users[k] || res.Error != "" || len(res.Items) != topN {
			c.undo(opBatch, "batch: result %d for %s: %+v", k, users[k], res)
			return
		}
	}
}

func (c *client) ingest(events []ganc.IngestEvent) {
	payload, _ := json.Marshal(serve.IngestRequest{Events: events}) // plain strings and floats always encode
	c.res.eventsSent += len(events)
	data, ok := c.do(opIngest, http.MethodPost, "/ingest", payload)
	if !ok {
		return
	}
	// The router answers {applied, shards}; a node answers {applied, seq, …}.
	var r struct {
		Applied int    `json:"applied"`
		Seq     uint64 `json:"seq"`
		Warning string `json:"warning"`
		Shards  []struct {
			Result serve.IngestResult `json:"result"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(data, &r); err != nil || r.Applied != len(events) || r.Warning != "" {
		c.undo(opIngest, "ingest: want %d applied and no warning, got %.200s (err %v)", len(events), data, err)
		return
	}
	if c.clusterIngest {
		for _, sh := range r.Shards {
			if sh.Result.Warning != "" {
				c.undo(opIngest, "ingest: shard warning %q", sh.Result.Warning)
				return
			}
		}
		return
	}
	c.res.lastSeq = r.Seq
}

// undo reclassifies the request just recorded as failed: a 200 whose body is
// wrong is not a served request.
func (c *client) undo(op int, format string, args ...interface{}) {
	c.res.lat[op] = c.res.lat[op][:len(c.res.lat[op])-1]
	c.res.fail(format, args...)
}

// getJSON fetches and decodes one JSON document (checks and probes, outside
// any timed window).
func getJSON(c *http.Client, rawURL string, v interface{}) error {
	resp, err := c.Get(rawURL)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", rawURL, resp.StatusCode, data)
	}
	return json.Unmarshal(data, v)
}

// recommendItems fetches one user's served list.
func recommendItems(c *http.Client, base, user string) ([]string, error) {
	var r serve.RecommendResponse
	if err := getJSON(c, base+"/recommend?user="+url.QueryEscape(user), &r); err != nil {
		return nil, err
	}
	return r.Items, nil
}

// scrape reads and parses a /metrics endpoint.
func scrape(c *http.Client, base string) (*ganc.MetricsScrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return ganc.ParseMetricsText(resp.Body)
}
