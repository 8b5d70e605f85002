package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ganc"
)

// Traffic mixes (relative weights of recommend / batch / ingest).
var (
	mixedTraffic = mix{90, 8, 2}
	hotTraffic   = mix{92, 8, 0}
)

func label(name, value string) ganc.MetricsLabel { return ganc.MetricsLabel{Name: name, Value: value} }

// target is the /metrics endpoints that describe a running system's layers.
type target struct {
	// nodes are the servers that do the serving work: the node itself, or the
	// cluster's shard primaries. Their series are summed.
	nodes []string
	// router is the router's root URL ("" on a single node).
	router string
}

// scrapeSet is one reading of every /metrics endpoint of a target.
type scrapeSet struct {
	nodes  []*ganc.MetricsScrape
	router *ganc.MetricsScrape
}

func (t target) scrape(c *http.Client) (scrapeSet, error) {
	var s scrapeSet
	for _, n := range t.nodes {
		sc, err := scrape(c, n)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, sc)
	}
	if t.router != "" {
		sc, err := scrape(c, t.router)
		if err != nil {
			return s, err
		}
		s.router = sc
	}
	return s, nil
}

func (s scrapeSet) node(name string, labels ...ganc.MetricsLabel) float64 {
	var sum float64
	for _, sc := range s.nodes {
		sum += sc.SumByPrefix(name, labels...)
	}
	return sum
}

func (s scrapeSet) rtr(name string, labels ...ganc.MetricsLabel) float64 {
	if s.router == nil {
		return 0
	}
	return s.router.SumByPrefix(name, labels...)
}

// window is one measured closed-loop window with the readings around it.
type window struct {
	heavy         int // the workload's heaviest operation class
	load          *loadResult
	before, after procSnapshot
	m0, m1        scrapeSet
}

func (w *window) nodeDelta(name string, labels ...ganc.MetricsLabel) float64 {
	return w.m1.node(name, labels...) - w.m0.node(name, labels...)
}

func (w *window) rtrDelta(name string, labels ...ganc.MetricsLabel) float64 {
	return w.m1.rtr(name, labels...) - w.m0.rtr(name, labels...)
}

// histMean is Δsum/Δcount of a histogram family over the window, in seconds.
func histMean(delta func(string, ...ganc.MetricsLabel) float64, family string, labels ...ganc.MetricsLabel) (mean float64, count float64) {
	count = delta(family+"_count", labels...)
	if count == 0 {
		return 0, 0
	}
	return delta(family+"_sum", labels...) / count, count
}

const routeHist = "ganc_http_request_duration_seconds"

func measureWindow(u *ganc.Universe, tgt target, cfg loadConfig) (*window, error) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	w := &window{heavy: cfg.heavy}
	var err error
	if w.m0, err = tgt.scrape(c); err != nil {
		return nil, err
	}
	w.before = readProc()
	w.load = runLoad(u, cfg)
	w.after = readProc()
	if w.m1, err = tgt.scrape(c); err != nil {
		return nil, err
	}
	return w, nil
}

// servingMetrics turns a window into the end-to-end numbers and the layer
// numbers that come from diffing the program's own /metrics around it.
func servingMetrics(res *runResult, w *window) error {
	heavy := w.heavy
	m := res.metrics
	l := w.load
	res.attempted += l.attempted
	res.failed += l.failed
	if l.failed > 0 {
		res.problemf("%d of %d requests failed; first: %s", l.failed, l.attempted, l.firstError)
	}
	var lat [opCount]latencySummary
	for op := range lat {
		lat[op] = summarize(l.lat[op])
	}
	reads := lat[opRead]
	all := pool(l.blocks)
	if all.reads.count == 0 || all.heavy.count == 0 {
		return fmt.Errorf("the window completed %d reads and %d %s requests; it needs some of each", all.reads.count, all.heavy.count, opNames[heavy])
	}
	ok := l.ok()
	// Gated: every block of the window, at nominal box speed.
	m["throughput_ops"] = all.rate
	m["read_p50_ms"] = ms(all.reads.p50)
	m["heavy_p50_ms"] = ms(all.heavy.p50)
	m["cpu_us_per_op"] = all.cpuPerOp
	// The same window as the clock showed it.
	m["throughput_rps"] = float64(ok) / l.elapsed.Seconds()
	m["read_p50_raw_ms"] = ms(reads.p50)
	m["read_p99_ms"] = ms(reads.tail(0.99))
	m["read_max_ms"] = ms(reads.max())
	m["batch_p50_ms"] = ms(lat[opBatch].p50)
	m["ingest_p50_ms"] = ms(lat[opIngest].p50)
	m["ingest_p95_ms"] = ms(lat[opIngest].tail(0.95))
	m["ingest_max_ms"] = ms(lat[opIngest].max())
	m["bench.box_speed"] = all.speed
	m["error_rate"] = float64(l.failed) / float64(l.attempted)
	windowMetrics(m, w.before, w.after, ok)

	recMean, _ := histMean(w.nodeDelta, routeHist, label("route", "/recommend"))
	batchMean, shardBatches := histMean(w.nodeDelta, routeHist, label("route", "/recommend/batch"))
	ingMean, _ := histMean(w.nodeDelta, routeHist, label("route", "/ingest"))
	m["serve.recommend_handler_us"] = recMean * 1e6
	m["serve.batch_handler_us"] = batchMean * 1e6
	m["serve.ingest_handler_ms"] = ingMean * 1e3
	computeMean, computes := histMean(w.nodeDelta, "ganc_engine_compute_seconds")
	m["core.compute_ms_per_miss"] = computeMean * 1e3
	m["core.computes"] = computes
	hits, misses := w.nodeDelta("ganc_cache_hits_total"), w.nodeDelta("ganc_cache_misses_total")
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["serve.coalesced"] = w.nodeDelta("ganc_cache_coalesced_total")
	m["serve.swaps"] = w.nodeDelta("ganc_engine_swaps_total")
	m["serve.resp_bytes_per_req"] = float64(l.respBytes) / float64(ok)
	m["ingest.events_acked"] = w.nodeDelta("ganc_ingest_events_total")

	outer := recMean // the outermost handler the program itself times
	if w.m1.router != nil {
		rtrRec, _ := histMean(w.rtrDelta, routeHist, label("route", "/recommend"))
		_, rtrBatches := histMean(w.rtrDelta, routeHist, label("route", "/recommend/batch"))
		rtrIng, _ := histMean(w.rtrDelta, routeHist, label("route", "/ingest"))
		outer = rtrRec
		m["cluster.router_handler_us"] = rtrRec * 1e6
		m["cluster.router_hop_us"] = (rtrRec - recMean) * 1e6
		if rtrBatches > 0 {
			m["cluster.fanout_per_batch"] = shardBatches / rtrBatches
		}
		m["cluster.ingest_router_ms"] = rtrIng * 1e3
		m["cluster.ingest_shard_ms"] = ingMean * 1e3
		m["cluster.quorum_fanout_ms"] = (rtrIng - ingMean) * 1e3
		m["cluster.retries"] = w.rtrDelta("ganc_router_retries_total")
		m["cluster.shard_failures"] = w.rtrDelta("ganc_router_shard_failures_total")
		m["cluster.failovers"] = w.rtrDelta("ganc_router_failovers_total")
		for _, name := range []string{"cluster.retries", "cluster.shard_failures", "cluster.failovers"} {
			if m[name] != 0 {
				res.problemf("%s = %v in a fault-free run", name, m[name])
			}
		}
	}
	m["serve.http_overhead_us"] = us(reads.mean) - outer*1e6
	return nil
}

// warmReads sends n seeded read requests outside any window.
func warmReads(u *ganc.Universe, base string, n int, seed int64) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	reqs := u.RequestStream(ganc.RequestStreamConfig{ZipfExponent: requestZipf, Seed: seed})
	for k := 0; k < n; k++ {
		if _, err := recommendItems(c, base, reqs.NextUser()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// sampleUsers draws the users the post-window equality checks visit.
func sampleUsers(u *ganc.Universe, n int, seed int64) []string {
	return u.RequestStream(ganc.RequestStreamConfig{ZipfExponent: requestZipf, Seed: seed}).NextUsers(n)
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// node is a single serving process's worth of state, assembled the way
// gancd -load does: snapshot → pipeline → server → ingestor → listener.
type node struct {
	snapPath, walPath string
	pipe              *ganc.Pipeline
	srv               *ganc.Server
	ing               *ganc.Ingestor
	hs                *http.Server
	base              string
	loadTime          time.Duration
}

// startNode boots a node from snapPath. Checkpoints go back into snapPath,
// so a restart loads the latest one and replays the WAL suffix.
func startNode(snapPath, walPath string, sc scale, t *tracer) (*node, error) {
	n := &node{snapPath: snapPath, walPath: walPath}
	t0 := time.Now()
	pipe, err := ganc.LoadEngine(snapPath)
	if err != nil {
		return nil, err
	}
	n.loadTime = time.Since(t0)
	var engine ganc.Engine = pipe
	if t != nil {
		engine = tracedEngine{Engine: pipe, t: t}
	}
	srv, err := ganc.NewServer(pipe.Train(), engine, topN,
		ganc.WithServerCacheCapacity(sc.mixedCache),
		ganc.WithMetrics(ganc.NewMetricsRegistry()))
	if err != nil {
		return nil, err
	}
	ing, err := ganc.NewIngestor(srv, pipe,
		ganc.WithIngestLog(walPath),
		ganc.WithIngestCheckpoint(snapPath, sc.checkpointEvery))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = ing.Close() // the listen error is the one to report
		return nil, err
	}
	handler := srv.Handler()
	if t != nil {
		handler = t.wrapHandler("serve.handler", handler)
	}
	n.pipe, n.srv, n.ing = pipe, srv, ing
	n.hs = &http.Server{Handler: handler}
	n.base = "http://" + ln.Addr().String()
	go func() { _ = n.hs.Serve(ln) }() // returns ErrServerClosed from stop
	return n, nil
}

// stop drops the node the way a crash would: no final checkpoint. The WAL is
// closed so a successor can open it.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		return err
	}
	return n.ing.Close()
}

func (n *node) target() target { return target{nodes: []string{n.base}} }

// runServeMixed is one node over loopback HTTP with a WAL (fsync per batch)
// and checkpoints on real disk, a cache smaller than the user population and
// a 2 % write mix: ingest does most of the wall time, every swap empties the
// LRU, and reads take core's online path. One client, because two make the
// ingest tail swing several-fold run to run on this box.
func runServeMixed(cfg runConfig) (*runResult, error) {
	res := newResult()
	m := res.metrics
	dir, err := workDir(cfg.outDir, cfg.workload)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	repeats := cfg.setupRepeats()

	// Set-up, from nothing to a warm node: generate, train, persist, load,
	// boot, warm up.
	var setups []time.Duration // at nominal speed
	setup := newLaps()
	var save time.Duration
	var tr *trained
	var n *node
	for i := 0; i < repeats; i++ {
		if n != nil {
			if err := n.stop(); err != nil {
				return nil, err
			}
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		snap := filepath.Join(sub, "node.snap")
		setup.begin()
		if tr, err = trainModel(cfg.sc, cfg.seed, false, setup); err != nil {
			return nil, err
		}
		pipe, err := tr.newPipeline(cfg.sc, cfg.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := pipe.Save(snap); err != nil {
			return nil, err
		}
		save = time.Since(t1)
		setup.lap()
		if n, err = startNode(snap, filepath.Join(sub, "node.wal"), cfg.sc, t); err != nil {
			return nil, err
		}
		setup.lap()
		if err := warmReads(tr.universe, n.base, cfg.sc.warmRequests, cfg.seed+99); err != nil {
			return nil, err
		}
		setup.lap()
		setups = append(setups, setup.nominal)
	}
	m["persist.snapshot_mb"] = fileMB(n.snapPath)
	cfg.logf("set up %d×: %s, snapshot %.1f MB", repeats, n.pipe.Name(), m["persist.snapshot_mb"])

	load := loadConfig{base: n.base, clients: 1, mix: mixedTraffic, window: cfg.window, blockReads: cfg.sc.blockReads, heavy: opIngest, seed: cfg.seed, tr: t}
	w, ref, err := tracedWindows(cfg, tr.universe, n.target(), load, res)
	if err != nil {
		return nil, err
	}

	// The node acknowledged a cursor per batch; with one client it must equal
	// the events sent, or an acknowledged write went missing.
	sent := uint64(res.eventsSent)
	if seq := n.ing.Seq(); seq != sent || w.load.lastSeq != sent {
		res.problemf("acked seq %d (node cursor %d) after sending %d events", w.load.lastSeq, seq, sent)
	}
	m["ingest.checkpoints"] = float64(int(sent) / cfg.sc.checkpointEvery)
	if sent > 0 {
		m["ingest.wal_bytes_per_event"] = fileMB(n.walPath) * (1 << 20) / float64(sent)
	}
	if cfg.traced {
		res.spans = t.snapshot()
	}

	// Crash and recover, straight after the window so that the WAL holds
	// events past the last checkpoint: the rebuilt node must answer what the
	// live one did. Batches are all ingestEvents long, so checkpoints fall on
	// multiples of the interval; a window that ended exactly on one gets one
	// more acknowledged batch, or recover_s would price no WAL replay.
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	if n.ing.Seq()%uint64(cfg.sc.checkpointEvery) == 0 {
		extra := &client{http: c, base: n.base, res: &loadResult{}}
		extra.ingest(tr.universe.EventStream(ganc.EventStreamConfig{Seed: cfg.seed + 53}).NextBatch(ingestEvents))
		if extra.res.failed > 0 {
			return nil, fmt.Errorf("ingest before the crash: %s", extra.res.firstError)
		}
	}
	sample := sampleUsers(tr.universe, cfg.sc.sampledChecks, cfg.seed+7)
	live := make([][]string, len(sample))
	for k, user := range sample {
		if live[k], err = recommendItems(c, n.base, user); err != nil {
			return nil, err
		}
	}
	finalSeq := n.ing.Seq()
	if err := n.stop(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rec, err := startNode(n.snapPath, n.walPath, cfg.sc, nil)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer func() { _ = rec.stop() }() // teardown after the result is final
	replayed, err := rec.ing.Recover()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	firstAnswer, err := recommendItems(c, rec.base, sample[0])
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	m["recover_s"] = time.Since(t0).Seconds()
	m["ingest.recover_replayed_events"] = float64(replayed)
	if !sameStrings(firstAnswer, live[0]) {
		res.problemf("recovered node's first answer differs from the live node's")
	}
	if rec.ing.Seq() != finalSeq {
		res.problemf("recovered cursor %d, live node stopped at %d", rec.ing.Seq(), finalSeq)
	}
	differ := 0
	for k, user := range sample {
		got, err := recommendItems(c, rec.base, user)
		if err != nil {
			return nil, err
		}
		if !sameStrings(got, live[k]) {
			differ++
		}
	}
	if differ > 0 {
		res.problemf("recovered node answers %d of %d sampled users differently from the live node", differ, len(sample))
	}

	m["setup_s"] = medianDuration(setups).Seconds()
	m["persist.save_s"] = save.Seconds()
	m["persist.load_s"] = n.loadTime.Seconds()
	tr.layerMetrics(m)
	if err := servingMetrics(res, w); err != nil {
		return nil, err
	}
	traceOverhead(m, ref, w)
	if cfg.traced {
		// The probes mutate the node they run on; the recovered one has
		// nothing left to prove.
		if err := probeNode(cfg, tr.universe, rec, dir, m); err != nil {
			return nil, err
		}
		m["bench.unattributed_us"] = m["serve.http_overhead_us"] - m["bench.http_floor_us"]
	}
	cfg.logf("set-up %.3fs; %d requests in %.2fs, %.0f/s, read p50 %.3fms, ingest p50 %.2fms (raw: %.0f/s, read p50 %.3fms p99 %.3fms), box speed %.2f, hit ratio %.2f, %d swaps; recovered in %.3fs (%d events replayed)",
		m["setup_s"], w.load.attempted, w.load.elapsed.Seconds(), m["throughput_ops"], m["read_p50_ms"], m["heavy_p50_ms"],
		m["throughput_rps"], m["read_p50_raw_ms"], m["read_p99_ms"], m["bench.box_speed"],
		m["serve.cache_hit_ratio"], int(m["serve.swaps"]), m["recover_s"], replayed)
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedWindows runs the measured window. Untraced, that is the whole
// --seconds. Traced, the first half runs with the wrappers installed but off
// (returned as ref) and the second half with them on; the throughput
// difference is the tracing overhead, and the second half is the window the
// layer numbers come from. res.eventsSent accumulates across both so cursor
// checks stay exact.
func tracedWindows(cfg runConfig, u *ganc.Universe, tgt target, load loadConfig, res *runResult) (w, ref *window, err error) {
	if !cfg.traced {
		if w, err = measureWindow(u, tgt, load); err != nil {
			return nil, nil, err
		}
		res.eventsSent = w.load.eventsSent
		return w, nil, nil
	}
	load.window = cfg.window / 2
	if ref, err = measureWindow(u, tgt, load); err != nil {
		return nil, nil, err
	}
	load.tr.on.Store(true)
	load.seed += 104729 // fresh request and event streams, same distribution
	w, err = measureWindow(u, tgt, load)
	load.tr.on.Store(false)
	if err != nil {
		return nil, nil, err
	}
	res.eventsSent = ref.load.eventsSent + w.load.eventsSent
	if ref.load.failed > 0 {
		res.attempted += ref.load.attempted
		res.failed += ref.load.failed
		res.problemf("%d of %d requests failed in the untraced half; first: %s", ref.load.failed, ref.load.attempted, ref.load.firstError)
	}
	return w, ref, nil
}

// traceOverhead compares the two halves of a traced run.
func traceOverhead(m map[string]float64, ref, w *window) {
	if ref == nil {
		return
	}
	rate := func(x *window) float64 { return float64(x.load.ok()) / x.load.elapsed.Seconds() }
	if r := rate(ref); r > 0 {
		m["bench.trace_overhead_pct"] = 100 * (r - rate(w)) / r
	}
}
