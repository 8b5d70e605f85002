package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ganc"
	"ganc/internal/serve"
)

const (
	clusterShards   = 2
	clusterReplicas = 1
)

// tier is a running in-process cluster: two shards with one replica each
// behind the router, whose handler is mounted on a listener of ours.
type tier struct {
	c        *ganc.Cluster
	hs       *http.Server
	base     string
	bootTime time.Duration
	loadTime time.Duration
}

// startTier boots the cluster from snapPath the way gancd -role cluster
// -load does: LoadEngine, then NewCluster shard-splits and boots every node.
func startTier(snapPath, dir string, cacheCap, writeQuorum int, t *tracer) (*tier, error) {
	t0 := time.Now()
	pipe, err := ganc.LoadEngine(snapPath)
	if err != nil {
		return nil, err
	}
	tr := &tier{loadTime: time.Since(t0)}
	t0 = time.Now()
	c, err := ganc.NewCluster(pipe,
		ganc.WithShards(clusterShards),
		ganc.WithReplicas(clusterReplicas),
		ganc.WithWriteQuorum(writeQuorum),
		ganc.WithClusterDir(dir),
		ganc.WithShardCacheCapacity(cacheCap),
		ganc.WithClusterMetrics(ganc.NewMetricsRegistry()))
	if err != nil {
		return nil, err
	}
	if err := c.WaitReady(30 * time.Second); err != nil {
		_ = c.Close() // the readiness error is the one to report
		return nil, err
	}
	tr.bootTime = time.Since(t0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = c.Close() // the listen error is the one to report
		return nil, err
	}
	handler := c.Handler()
	if t != nil {
		handler = t.wrapHandler("cluster.router", handler)
	}
	tr.c = c
	tr.hs = &http.Server{Handler: handler}
	tr.base = "http://" + ln.Addr().String()
	go func() { _ = tr.hs.Serve(ln) }() // returns ErrServerClosed from stop
	return tr, nil
}

func (tr *tier) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tr.hs.Shutdown(ctx); err != nil {
		return err
	}
	return tr.c.Close()
}

func (tr *tier) shardBase(i int) string { return "http://" + tr.c.ShardAddr(i) }

func (tr *tier) target() target {
	tgt := target{router: tr.base}
	for i := 0; i < tr.c.NumShards(); i++ {
		tgt.nodes = append(tgt.nodes, tr.shardBase(i))
	}
	return tgt
}

// warmEveryUser requests every user of the universe once through the router,
// in batches split over the workload's clients, so that with a per-node cache
// larger than the population the measured window finds every list cached.
func warmEveryUser(u *ganc.Universe, base string, clients int) error {
	users := u.Train().UserInterner()
	n := users.Len()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res := &loadResult{}
			c := &client{http: newHTTPClient(), base: base, res: res}
			defer c.http.CloseIdleConnections()
			for lo := k * batchUsers; lo < n; lo += clients * batchUsers {
				hi := lo + batchUsers
				if hi > n {
					hi = n
				}
				batch := make([]string, 0, batchUsers)
				for i := lo; i < hi; i++ {
					batch = append(batch, users.Key(int32(i)))
				}
				c.batch(batch)
			}
			if res.failed > 0 {
				errs[k] = fmt.Errorf("warm-up: %d batches failed; first: %s", res.failed, res.firstError)
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clusterRun is what differs between the two cluster workloads.
type clusterRun struct {
	cacheCap    int
	writeQuorum int
	clients     int
	mix         mix
	// heavy is the operation class heavy_p50_ms reports.
	heavy int
	// warm brings a freshly booted tier to the state the window starts from.
	warm func(u *ganc.Universe, base string) error
}

// clusterState is a cluster workload between its window and its metrics:
// everything measured so far and the tier still running for the checks.
type clusterState struct {
	cfg    runConfig
	cr     clusterRun
	res    *runResult
	dir    string
	model  *trained
	tr     *tier
	setups []time.Duration // at nominal speed
	save   time.Duration
	w, ref *window
}

// startCluster sets the tier up (several times, untraced), runs the window
// and, traced, the probes.
func startCluster(cfg runConfig, cr clusterRun) (cs *clusterState, err error) {
	cs = &clusterState{cfg: cfg, cr: cr, res: newResult()}
	if cs.dir, err = workDir(cfg.outDir, cfg.workload); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			cs.cleanup()
		}
	}()
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	repeats := cfg.setupRepeats()
	setup := newLaps()

	// Set-up, from nothing to a warm tier: generate, train, persist, load,
	// shard-split and boot five listeners, warm up.
	for i := 0; i < repeats; i++ {
		if cs.tr != nil {
			if err := cs.tr.stop(); err != nil {
				return nil, err
			}
			cs.tr = nil
		}
		sub := filepath.Join(cs.dir, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(sub, 0o755); err != nil {
			return nil, err
		}
		snap := filepath.Join(sub, "cluster.snap")
		setup.begin()
		if cs.model, err = trainModel(cfg.sc, cfg.seed, false, setup); err != nil {
			return nil, err
		}
		pipe, err := cs.model.newPipeline(cfg.sc, cfg.seed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := pipe.Save(snap); err != nil {
			return nil, err
		}
		cs.save = time.Since(t1)
		setup.lap()
		cs.res.metrics["persist.snapshot_mb"] = fileMB(snap)
		if cs.tr, err = startTier(snap, sub, cr.cacheCap, cr.writeQuorum, t); err != nil {
			return nil, err
		}
		setup.lap()
		if err := cr.warm(cs.model.universe, cs.tr.base); err != nil {
			return nil, err
		}
		setup.lap()
		cs.setups = append(cs.setups, setup.nominal)
	}
	cfg.logf("set up %d×: %d shards × %d replica, per-node cache %d", repeats, clusterShards, clusterReplicas, cr.cacheCap)

	load := loadConfig{base: cs.tr.base, clients: cr.clients, mix: cr.mix, window: cfg.window, blockReads: cfg.sc.blockReads, heavy: cr.heavy,
		seed: cfg.seed, clusterIngest: true, tr: t}
	if cs.w, cs.ref, err = tracedWindows(cfg, cs.model.universe, cs.tr.target(), load, cs.res); err != nil {
		return nil, err
	}
	if cfg.traced {
		cs.res.spans = t.snapshot()
		if err := probeCluster(cfg, cs.model.universe, cs.tr, cs.res.metrics); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// cleanup stops whatever is running and removes the work directory.
func (cs *clusterState) cleanup() {
	if cs.tr != nil {
		_ = cs.tr.stop() // teardown after the result is final
	}
	os.RemoveAll(cs.dir)
}

// finish turns everything measured into metrics.
func (cs *clusterState) finish() error {
	m := cs.res.metrics
	m["setup_s"] = medianDuration(cs.setups).Seconds()
	m["persist.save_s"] = cs.save.Seconds()
	m["persist.load_s"] = cs.tr.loadTime.Seconds()
	m["cluster.boot_s"] = cs.tr.bootTime.Seconds()
	cs.model.layerMetrics(m)
	if err := servingMetrics(cs.res, cs.w); err != nil {
		return err
	}
	traceOverhead(m, cs.ref, cs.w)
	cs.cfg.logf("set-up %.3fs (boot %.3fs); %d requests in %.2fs, %.0f/s, read p50 %.3fms, %s p50 %.3fms (raw: %.0f/s, read p50 %.3fms p99 %.3fms), box speed %.2f, hit ratio %.4f, %d computes",
		m["setup_s"], m["cluster.boot_s"], cs.w.load.attempted, cs.w.load.elapsed.Seconds(), m["throughput_ops"], m["read_p50_ms"],
		opNames[cs.cr.heavy], m["heavy_p50_ms"], m["throughput_rps"], m["read_p50_raw_ms"], m["read_p99_ms"], m["bench.box_speed"],
		m["serve.cache_hit_ratio"], int(m["core.computes"]))
	var err error
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return err
	}
	return nil
}

// runClusterHot is the read-only, fully cached cluster: the router hop, the
// JSON re-encode, the shard round trip and serve's hit path do all the work;
// core and ingest do none, so a change to either must show nothing here.
func runClusterHot(cfg runConfig) (*runResult, error) {
	cs, err := startCluster(cfg, clusterRun{
		cacheCap: cfg.sc.hotCache, clients: 2, mix: hotTraffic, heavy: opBatch,
		warm: func(u *ganc.Universe, base string) error { return warmEveryUser(u, base, 2) },
	})
	if err != nil {
		return nil, err
	}
	defer cs.cleanup()
	res, tr, model := cs.res, cs.tr, cs.model

	// Served lists must equal both the owner shard's direct answer and the
	// in-process pipeline the cluster was split from (no write ever happened).
	pipe, err := model.newPipeline(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	users, items := model.train.UserInterner(), model.train.ItemInterner()
	differ := 0
	for _, user := range sampleUsers(model.universe, cfg.sc.sampledChecks, cfg.seed+7) {
		routed, err := recommendItems(c, tr.base, user)
		if err != nil {
			return nil, err
		}
		direct, err := recommendItems(c, tr.shardBase(tr.c.OwnerShard(user)), user)
		if err != nil {
			return nil, err
		}
		idx, _ := users.Lookup(user) // sampled from this universe
		set, err := pipe.RecommendUser(context.Background(), ganc.UserID(idx), topN)
		if err != nil {
			return nil, err
		}
		local := make([]string, len(set))
		for k, i := range set {
			local[k] = items.Key(int32(i))
		}
		if !sameStrings(routed, direct) || !sameStrings(routed, local) {
			differ++
		}
	}
	if differ > 0 {
		res.problemf("%d of %d sampled users: routed, direct-shard and in-process lists differ", differ, cfg.sc.sampledChecks)
	}

	if err := cs.finish(); err != nil {
		return nil, err
	}
	m := res.metrics
	if m["serve.cache_hit_ratio"] < 0.99 {
		res.problemf("cache hit ratio %.4f in the window, want ≥ 0.99", m["serve.cache_hit_ratio"])
	}
	if limit := 0.01 * m["bench.requests"]; m["core.computes"] > limit {
		res.problemf("%d engine computes in a window of %d requests, want ≤ 1 %%", int(m["core.computes"]), int(m["bench.requests"]))
	}
	return res, nil
}

// runClusterMixed uses the same cluster layer differently: router ingest
// fan-out, a write quorum of one and the replication stream beside reads,
// with the write path split over two shards. One client, as in serve_mixed.
func runClusterMixed(cfg runConfig) (*runResult, error) {
	cs, err := startCluster(cfg, clusterRun{
		cacheCap: cfg.sc.mixedCache, writeQuorum: 1, clients: 1, mix: mixedTraffic, heavy: opIngest,
		warm: func(u *ganc.Universe, base string) error {
			return warmReads(u, base, cfg.sc.warmRequests, cfg.seed+99)
		},
	})
	if err != nil {
		return nil, err
	}
	defer cs.cleanup()
	res, tr, model := cs.res, cs.tr, cs.model
	m := res.metrics

	t0 := time.Now()
	if err := tr.c.WaitForReplicaSync(30 * time.Second); err != nil {
		res.problemf("replicas did not catch up: %v", err)
	}
	m["cluster.replica_sync_s"] = time.Since(t0).Seconds()
	var lag uint64
	for i := 0; i < tr.c.NumShards(); i++ {
		lag += tr.c.ReplicaLag(i)
	}
	m["cluster.replica_lag_end"] = float64(lag)
	if lag != 0 {
		res.problemf("replica lag %d events after sync", lag)
	}

	// Every event the router acknowledged sits on a primary, and each
	// replica holds its primary's cursor and answers like it.
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var applied uint64
	for i := 0; i < tr.c.NumShards(); i++ {
		var primary, replica serve.HealthResponse
		if err := getJSON(c, tr.shardBase(i)+"/health", &primary); err != nil {
			return nil, err
		}
		if err := getJSON(c, "http://"+tr.c.ReplicaAddr(i, 0)+"/health", &replica); err != nil {
			return nil, err
		}
		if primary.Replication == nil || replica.Replication == nil {
			res.problemf("shard %d: /health carries no replication status", i)
			continue
		}
		applied += primary.Replication.AppliedSeq
		if replica.Replication.AppliedSeq != primary.Replication.AppliedSeq {
			res.problemf("shard %d: replica applied %d, primary %d", i, replica.Replication.AppliedSeq, primary.Replication.AppliedSeq)
		}
		if primary.Replication.QuorumTimeouts != 0 {
			res.problemf("shard %d: %d commits gave up waiting for their quorum", i, primary.Replication.QuorumTimeouts)
		}
	}
	if want := uint64(res.eventsSent); applied != want {
		res.problemf("primaries applied %d events, the router acknowledged %d", applied, want)
	}
	differ := 0
	for _, user := range sampleUsers(model.universe, cfg.sc.sampledChecks, cfg.seed+7) {
		owner := tr.c.OwnerShard(user)
		fromPrimary, err := recommendItems(c, tr.shardBase(owner), user)
		if err != nil {
			return nil, err
		}
		fromReplica, err := recommendItems(c, "http://"+tr.c.ReplicaAddr(owner, 0), user)
		if err != nil {
			return nil, err
		}
		if !sameStrings(fromPrimary, fromReplica) {
			differ++
		}
	}
	if differ > 0 {
		res.problemf("%d of %d sampled users: replica answers differently from its primary", differ, cfg.sc.sampledChecks)
	}
	if err := cs.finish(); err != nil {
		return nil, err
	}
	return res, nil
}
