// Command gancd is the serving daemon: it runs one role of a (possibly
// sharded) GANC serving deployment from warm-start snapshots. Training and
// evaluation live in cmd/ganc; gancd only loads, splits and serves.
//
// Roles (-role):
//
//	standalone  serve one snapshot on one node (the cmd/ganc serve mode,
//	            without the training machinery)
//	split       shard-split a snapshot: write N shard-scoped snapshots
//	            (shard id + hash-ring epoch in each) into -out
//	shard       serve one shard snapshot; refuses snapshots whose identity
//	            disagrees with the -shards/-shard-id/-epoch flags. With
//	            -replica-addrs it also ships every committed ingest batch to
//	            the listed replica nodes over POST /replicate
//	replica     serve one shard snapshot as a warm read replica: no client
//	            writes (/ingest is absent), POST /replicate applies the
//	            primary's committed batches into the replica's own
//	            write-ahead log, /health reports the replication cursor/lag
//	router      scatter-gather front over -peers: proxies /recommend, fans
//	            /recommend/batch and /ingest out by user ownership, merges,
//	            aggregates /info and /health, answers typed 503s for dead
//	            shards. A "primary+replica" peer entry enables read failover
//	            to that shard's replicas, bounded by -max-replica-lag
//	cluster     the whole topology in one process (a demo/benchmark form):
//	            split into a temp dir, boot every shard (-replicas warm
//	            replicas each), serve the router. -write-quorum K acks each
//	            committed batch only after K replicas hold it; -auto-failover
//	            promotes a suspected-dead primary's freshest replica with no
//	            operator call (tune the detector with -detect-interval-ms
//	            and -suspect-after)
//
// A 3-shard deployment, one process per node:
//
//	ganc -preset ML-1M -arec Pop -save model.snap
//	gancd -role split -load model.snap -shards 3 -out shards/
//	gancd -role shard -load shards/shard-000.snap -serve :8081 &
//	gancd -role shard -load shards/shard-001.snap -serve :8082 &
//	gancd -role shard -load shards/shard-002.snap -serve :8083 &
//	gancd -role router -peers :8081,:8082,:8083 -serve :8080
//
// The same topology with one replica behind shard 0:
//
//	gancd -role replica -load shards/shard-000.snap -ingest-log r0.wal -serve :9081 &
//	gancd -role shard -load shards/shard-000.snap -ingest-log s0.wal \
//	      -replica-addrs :9081 -serve :8081 &
//	gancd -role router -peers :8081+:9081,:8082,:8083 -serve :8080
//
// The same topology in one process:
//
//	gancd -role cluster -load model.snap -shards 3 -replicas 1 -serve :8080
//
// A cluster-role daemon can be resharded live — user histories stream to
// the new owners while traffic keeps flowing (DESIGN.md §14):
//
//	curl -X POST 'http://localhost:8080/admin/reshard?target=4'
//
// The router and the shard snapshots must agree on (epoch, shard count):
// ownership is a pure function of that pair, so a mismatched deployment
// would silently route users to shards that never ingested their events.
// Shard servers embed their identity in /info and the router flags
// mismatches there (see DESIGN.md §10 for the epoch rules).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ganc"
)

// obsSettings carries the observability/admission flags every serving role
// shares: a /metrics endpoint, JSON-line request logging, per-client rate
// limiting and a concurrency cap.
type obsSettings struct {
	metrics       bool
	requestLog    string
	rateLimit     float64
	rateBurst     float64
	maxConcurrent int
	maxWaitMs     int
}

// admission translates the flags into an admission configuration (the zero
// value disables both gates).
func (o obsSettings) admission() ganc.AdmissionConfig {
	return ganc.AdmissionConfig{
		RatePerSec:    o.rateLimit,
		Burst:         o.rateBurst,
		MaxConcurrent: o.maxConcurrent,
		MaxWait:       time.Duration(o.maxWaitMs) * time.Millisecond,
	}
}

// logger opens the request-log sink ("-" = stderr). The cleanup (possibly
// nil) closes a file sink.
func (o obsSettings) logger() (*ganc.RequestLogger, func() error, error) {
	if o.requestLog == "" {
		return nil, nil, nil
	}
	if o.requestLog == "-" {
		return ganc.NewRequestLogger(os.Stderr, ganc.LogInfo), nil, nil
	}
	f, err := os.OpenFile(o.requestLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening request log: %w", err)
	}
	return ganc.NewRequestLogger(f, ganc.LogInfo), f.Close, nil
}

// serverOptions translates the flags into single-node server options.
func (o obsSettings) serverOptions() ([]ganc.ServerOption, func() error, error) {
	var opts []ganc.ServerOption
	if o.metrics {
		opts = append(opts, ganc.WithMetrics(ganc.NewMetricsRegistry()))
	}
	log, cleanup, err := o.logger()
	if err != nil {
		return nil, nil, err
	}
	if log != nil {
		opts = append(opts, ganc.WithRequestLog(log))
	}
	if o.rateLimit > 0 {
		opts = append(opts, ganc.WithRateLimit(o.rateLimit, o.rateBurst))
	}
	if o.maxConcurrent > 0 {
		opts = append(opts, ganc.WithMaxConcurrent(o.maxConcurrent, time.Duration(o.maxWaitMs)*time.Millisecond))
	}
	return opts, cleanup, nil
}

func main() {
	role := flag.String("role", "standalone", "standalone | split | shard | replica | router | cluster")
	loadPath := flag.String("load", "", "snapshot to load (written by ganc -save, or a shard snapshot from -role split)")
	serveAddr := flag.String("serve", "", "listen address (e.g. :8080)")
	shards := flag.Int("shards", 3, "shard count (split, cluster; cross-checked in shard role)")
	shardID := flag.Int("shard-id", -1, "expected shard id (shard role; -1 trusts the snapshot)")
	peers := flag.String("peers", "", "comma-separated shard addresses in shard-id order (router role); \"primary+replica1+replica2\" entries declare read-failover replicas")
	replicaAddrs := flag.String("replica-addrs", "", "comma-separated replica addresses this shard ships committed batches to (shard role)")
	replicas := flag.Int("replicas", 0, "warm replicas per shard (cluster role)")
	writeQuorum := flag.Int("write-quorum", 0, "k-of-n quorum writes: ack a committed batch only after k replicas hold it (shard and cluster roles; 0 = fire-and-forget)")
	autoFailover := flag.Bool("auto-failover", false, "cluster: promote a suspected-dead primary's freshest replica automatically, no operator call")
	detectIntervalMs := flag.Int("detect-interval-ms", 0, "failure-detector /health sampling interval in ms (router and cluster roles; 0 = default 250)")
	suspectAfter := flag.Int("suspect-after", 0, "consecutive missed probes before the detector suspects a node (0 = default 3)")
	maxReplicaLag := flag.Int64("max-replica-lag", 0, "router: max committed-event lag for a replica to serve a failover read (0 = default 1024, negative disables failover)")
	epoch := flag.Uint64("epoch", 1, "hash-ring epoch (split, router, cluster; cross-checked in shard role)")
	outDir := flag.String("out", "", "output directory for shard snapshots (split role)")
	cache := flag.Int("cache", 0, "per-node LRU cache capacity (0 = serving default)")
	ingestLog := flag.String("ingest-log", "", "write-ahead log path for POST /ingest (standalone and shard roles)")
	checkpointInterval := flag.Int("checkpoint-interval", 0, "checkpoint the snapshot every this many ingested events (0 = never)")
	retries := flag.Int("retries", 2, "router: bounded retries per shard call before the typed 503")
	metrics := flag.Bool("metrics", false, "mount GET /metrics (Prometheus text format) on serving roles")
	requestLog := flag.String("request-log", "", "append one JSON line per request to this file (\"-\" = stderr)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client sustained requests/second (0 = unlimited)")
	rateBurst := flag.Float64("rate-burst", 0, "per-client burst allowance (0 = max(rate-limit, 1))")
	maxConcurrent := flag.Int("max-concurrent", 0, "cap on requests inside handlers at once (0 = uncapped)")
	maxWaitMs := flag.Int("max-wait-ms", 0, "how long an over-capacity request waits for a slot before a 429 (0 = shed immediately)")
	flag.Parse()

	obs := obsSettings{
		metrics:       *metrics,
		requestLog:    *requestLog,
		rateLimit:     *rateLimit,
		rateBurst:     *rateBurst,
		maxConcurrent: *maxConcurrent,
		maxWaitMs:     *maxWaitMs,
	}
	var err error
	switch *role {
	case "standalone":
		err = runStandalone(*loadPath, *serveAddr, *cache, *ingestLog, *checkpointInterval, obs)
	case "split":
		err = runSplit(*loadPath, *outDir, *shards, *epoch)
	case "shard":
		err = runShard(*loadPath, *serveAddr, *shards, *shardID, *epoch, *cache, *ingestLog, *checkpointInterval, *replicaAddrs, *writeQuorum, obs)
	case "replica":
		err = runReplica(*loadPath, *serveAddr, *shards, *shardID, *epoch, *cache, *ingestLog, *checkpointInterval, obs)
	case "router":
		err = runRouter(*peers, *serveAddr, *epoch, *retries, *maxReplicaLag, *detectIntervalMs, *suspectAfter, obs)
	case "cluster":
		err = runCluster(*loadPath, *serveAddr, *shards, *replicas, *writeQuorum, *autoFailover, *detectIntervalMs, *suspectAfter, *epoch, *cache, *checkpointInterval, obs)
	default:
		err = fmt.Errorf("unknown -role %q (standalone, split, shard, replica, router, cluster)", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gancd:", err)
		os.Exit(1)
	}
}

// loadSnapshot loads a snapshot with operator-grade error messages.
func loadSnapshot(path string) (*ganc.Pipeline, error) {
	if path == "" {
		return nil, fmt.Errorf("-load is required (train and snapshot with: ganc -arec Pop -save model.snap)")
	}
	p, err := ganc.LoadEngine(path)
	switch {
	case errors.Is(err, ganc.ErrSnapshotVersion):
		return nil, fmt.Errorf("snapshot %s was written by an incompatible version of this tool: %w", path, err)
	case errors.Is(err, ganc.ErrSnapshotBadMagic):
		return nil, fmt.Errorf("%s is not a GANC snapshot: %w", path, err)
	case errors.Is(err, ganc.ErrSnapshotCorrupt):
		return nil, fmt.Errorf("snapshot %s is corrupt (truncated or bit-flipped): %w", path, err)
	case err != nil:
		return nil, err
	}
	return p, nil
}

// serveNode stands one serve.Server up around a pipeline (standalone and
// shard roles share it) and blocks. A non-empty replicaAddrs list attaches
// the primary-side replication shipper: every committed ingest batch is
// shipped to the replicas synchronously, with write-ahead-log catch-up for
// stragglers.
func serveNode(p *ganc.Pipeline, addr string, cache int, shard *ganc.ShardIdentity,
	ingestLog string, checkpointPath string, checkpointInterval int, replicaAddrs []string,
	writeQuorum int, obs obsSettings) error {
	if addr == "" {
		return fmt.Errorf("-serve is required for serving roles")
	}
	opts, obsCleanup, err := obs.serverOptions()
	if err != nil {
		return err
	}
	if obsCleanup != nil {
		defer func() { _ = obsCleanup() }()
	}
	if cache > 0 {
		opts = append(opts, ganc.WithServerCacheCapacity(cache))
	}
	if shard != nil {
		opts = append(opts, ganc.WithServerShardIdentity(*shard))
	}
	srv, err := ganc.NewServer(p.Train(), p, p.TopN(), opts...)
	if err != nil {
		return err
	}
	ingOpts := []ganc.IngestorOption{}
	if ingestLog != "" {
		ingOpts = append(ingOpts, ganc.WithIngestLog(ingestLog))
	}
	if checkpointInterval > 0 {
		ingOpts = append(ingOpts, ganc.WithIngestCheckpoint(checkpointPath, checkpointInterval))
	}
	var shipper *ganc.Shipper
	if len(replicaAddrs) > 0 {
		if shard == nil {
			return fmt.Errorf("-replica-addrs requires a shard snapshot (replication is per shard)")
		}
		if ingestLog == "" {
			return fmt.Errorf("-replica-addrs requires -ingest-log (the shipper replays the write-ahead log to catch lagging replicas up)")
		}
		if writeQuorum > len(replicaAddrs) {
			return fmt.Errorf("-write-quorum %d exceeds the %d replicas in -replica-addrs", writeQuorum, len(replicaAddrs))
		}
		shipper = ganc.NewShipper(ganc.ShipperConfig{
			Shard:       shard.ShardID,
			Epoch:       shard.RingEpoch,
			WALPath:     ingestLog,
			Replicas:    replicaAddrs,
			WriteQuorum: writeQuorum,
		})
		defer shipper.Close()
		ingOpts = append(ingOpts, ganc.WithCommitHook(shipper.Commit))
		srv.SetReplicationProbe(shipper.Status)
	}
	endpoints := "GET /recommend?user=<id>, POST /recommend/batch, /info, /health"
	if obs.metrics {
		endpoints += ", GET /metrics"
	}
	ing, err := ganc.NewIngestor(srv, p, ingOpts...)
	if err != nil {
		return fmt.Errorf("enabling ingestion: %w", err)
	}
	if ingestLog != "" {
		replayed, err := ing.Recover()
		if err != nil {
			return fmt.Errorf("replaying ingest log %s: %w", ingestLog, err)
		}
		if replayed > 0 {
			fmt.Fprintf(os.Stderr, "replayed %d events from %s (resuming at seq %d)\n", replayed, ingestLog, ing.Seq())
		}
	}
	if shipper != nil {
		// Recovery replay already advanced the shipper's head through the
		// commit hook; the handshake adopts each replica's true cursor so
		// catch-up starts from reality rather than a guess.
		shipper.Resync()
		if writeQuorum > 0 {
			fmt.Fprintf(os.Stderr, "replicating to %s (write quorum %d of %d)\n",
				strings.Join(replicaAddrs, ", "), writeQuorum, len(replicaAddrs))
		} else {
			fmt.Fprintf(os.Stderr, "replicating to %s\n", strings.Join(replicaAddrs, ", "))
		}
	}
	endpoints += ", POST /ingest"
	if shard != nil {
		fmt.Fprintf(os.Stderr, "serving %s on %s as shard %d/%d epoch %d (%s)\n",
			p.Name(), addr, shard.ShardID, shard.NumShards, shard.RingEpoch, endpoints)
	} else {
		fmt.Fprintf(os.Stderr, "serving %s on %s (%s)\n", p.Name(), addr, endpoints)
	}
	return http.ListenAndServe(addr, srv.Handler())
}

// runStandalone serves a plain snapshot on one node.
func runStandalone(loadPath, addr string, cache int, ingestLog string, checkpointInterval int, obs obsSettings) error {
	p, err := loadSnapshot(loadPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "loaded %s from %s: %d users, %d items, %d ratings\n",
		p.Name(), loadPath, p.Train().NumUsers(), p.Train().NumItems(), p.Train().NumRatings())
	return serveNode(p, addr, cache, nil, ingestLog, loadPath, checkpointInterval, nil, 0, obs)
}

// runSplit writes N shard-scoped snapshots of one plain snapshot.
func runSplit(loadPath, outDir string, shards int, epoch uint64) error {
	if outDir == "" {
		return fmt.Errorf("-out directory is required for -role split")
	}
	if shards <= 0 {
		return fmt.Errorf("-shards must be positive, got %d", shards)
	}
	p, err := loadSnapshot(loadPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		path := filepath.Join(outDir, fmt.Sprintf("shard-%03d.snap", i))
		id := ganc.ShardIdentity{ShardID: i, NumShards: shards, RingEpoch: epoch}
		if err := p.SaveShard(path, id); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (shard %d/%d, epoch %d)\n", path, i, shards, epoch)
	}
	fmt.Fprintf(os.Stderr, "serve each with: gancd -role shard -load %s/shard-NNN.snap -serve :PORT\n", outDir)
	return nil
}

// loadShardSnapshot loads a shard snapshot, cross-checking its identity
// against the flags when they are given (shard and replica roles share it).
func loadShardSnapshot(loadPath string, shards, shardID int, epoch uint64) (*ganc.Pipeline, ganc.ShardIdentity, error) {
	var id ganc.ShardIdentity
	if loadPath == "" {
		return nil, id, fmt.Errorf("-load is required (produce shard snapshots with -role split)")
	}
	p, id, err := ganc.LoadShardEngine(loadPath)
	if err != nil {
		return nil, id, err
	}
	if shardID >= 0 && id.ShardID != shardID {
		return nil, id, fmt.Errorf("snapshot %s is shard %d, but -shard-id says %d", loadPath, id.ShardID, shardID)
	}
	if flagWasSet("shards") && id.NumShards != shards {
		return nil, id, fmt.Errorf("snapshot %s was cut for %d shards, but -shards says %d", loadPath, id.NumShards, shards)
	}
	if flagWasSet("epoch") && id.RingEpoch != epoch {
		return nil, id, fmt.Errorf("snapshot %s was cut for ring epoch %d, but -epoch says %d (re-split after membership changes)",
			loadPath, id.RingEpoch, epoch)
	}
	return p, id, nil
}

// runShard serves one shard snapshot, cross-checking its identity against
// the flags when they are given.
func runShard(loadPath, addr string, shards, shardID int, epoch uint64, cache int,
	ingestLog string, checkpointInterval int, replicaAddrs string, writeQuorum int, obs obsSettings) error {
	p, id, err := loadShardSnapshot(loadPath, shards, shardID, epoch)
	if err != nil {
		return err
	}
	var reps []string
	if replicaAddrs != "" {
		for _, a := range strings.Split(replicaAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				reps = append(reps, a)
			}
		}
	}
	return serveNode(p, addr, cache, &id, ingestLog, loadPath, checkpointInterval, reps, writeQuorum, obs)
}

// runReplica serves one shard snapshot as a warm read replica: the only
// write path is POST /replicate (client /ingest answers a typed 409), applied batches
// land in the replica's own write-ahead log, and /health reports the
// replication cursor and lag.
func runReplica(loadPath, addr string, shards, shardID int, epoch uint64, cache int,
	ingestLog string, checkpointInterval int, obs obsSettings) error {
	if addr == "" {
		return fmt.Errorf("-serve is required for -role replica")
	}
	if ingestLog == "" {
		return fmt.Errorf("-ingest-log is required for -role replica (the replica's own write-ahead log makes it promotable)")
	}
	p, id, err := loadShardSnapshot(loadPath, shards, shardID, epoch)
	if err != nil {
		return err
	}
	opts, obsCleanup, err := obs.serverOptions()
	if err != nil {
		return err
	}
	if obsCleanup != nil {
		defer func() { _ = obsCleanup() }()
	}
	if cache > 0 {
		opts = append(opts, ganc.WithServerCacheCapacity(cache))
	}
	opts = append(opts, ganc.WithServerShardIdentity(id))
	srv, err := ganc.NewServer(p.Train(), p, p.TopN(), opts...)
	if err != nil {
		return err
	}
	ingOpts := []ganc.IngestorOption{
		ganc.WithIngestLog(ingestLog),
		ganc.WithoutIngestSink(),
	}
	if checkpointInterval > 0 {
		ingOpts = append(ingOpts, ganc.WithIngestCheckpoint(loadPath, checkpointInterval))
	}
	ing, err := ganc.NewIngestor(srv, p, ingOpts...)
	if err != nil {
		return fmt.Errorf("enabling replication apply: %w", err)
	}
	replayed, err := ing.Recover()
	if err != nil {
		return fmt.Errorf("replaying ingest log %s: %w", ingestLog, err)
	}
	if replayed > 0 {
		fmt.Fprintf(os.Stderr, "replayed %d events from %s (resuming at seq %d)\n", replayed, ingestLog, ing.Seq())
	}
	// The same stream surface every cluster node mounts, in the replica role:
	// /replicate accepts, /migrate and client /ingest answer a typed 409.
	node := ganc.NewStreamNode(id.ShardID, id.RingEpoch, ing, ingestLog)
	srv.SetReplicationProbe(node.Replica.Status)
	endpoints := "GET /recommend?user=<id>, POST /recommend/batch, /info, /health, POST /replicate, /migrate, /replicate/tail"
	if obs.metrics {
		endpoints += ", GET /metrics"
	}
	fmt.Fprintf(os.Stderr, "serving %s on %s as replica of shard %d/%d epoch %d (%s)\n",
		p.Name(), addr, id.ShardID, id.NumShards, id.RingEpoch, endpoints)
	return http.ListenAndServe(addr, node.Mount(srv.Handler()))
}

// runRouter fronts the peers with the scatter-gather router. When any peer
// entry declares replicas, a shared failure detector samples every node's
// /health in the background so failed reads route by the cached liveness
// view — zero per-request probes — and suspected primaries are skipped
// without burning the retry budget.
func runRouter(peers, addr string, epoch uint64, retries int, maxReplicaLag int64,
	detectIntervalMs, suspectAfter int, obs obsSettings) error {
	if addr == "" {
		return fmt.Errorf("-serve is required for -role router")
	}
	infos, err := ganc.ParsePeerTopology(peers)
	if err != nil {
		return fmt.Errorf("-peers: %w (expected \"host1:port,host2:port,…\" in shard-id order; append \"+replicahost:port\" for read-failover replicas)", err)
	}
	ring, err := ganc.NewRing(epoch, infos)
	if err != nil {
		return err
	}
	cfg := ganc.RouterConfig{Ring: ring, Retries: retries, MaxReplicaLag: maxReplicaLag, Admission: ganc.NewAdmission(obs.admission())}
	hasReplicas := false
	for _, info := range infos {
		if len(info.Replicas) > 0 {
			hasReplicas = true
		}
	}
	if hasReplicas {
		d := ganc.NewFailureDetector(ganc.FailureDetectorConfig{
			Ring:         func() *ganc.Ring { return ring },
			Interval:     time.Duration(detectIntervalMs) * time.Millisecond,
			SuspectAfter: suspectAfter,
		})
		defer d.Close()
		cfg.Detector = d
	}
	if obs.metrics {
		cfg.Metrics = ganc.NewMetricsRegistry()
	}
	log, logCleanup, err := obs.logger()
	if err != nil {
		return err
	}
	if logCleanup != nil {
		defer func() { _ = logCleanup() }()
	}
	cfg.RequestLog = log
	rt, err := ganc.NewRouter(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "routing over %d shards (epoch %d) on %s: %s\n",
		ring.NumShards(), epoch, addr, peers)
	return http.ListenAndServe(addr, rt.Handler())
}

// runCluster boots the whole sharded topology in one process.
func runCluster(loadPath, addr string, shards, replicas, writeQuorum int, autoFailover bool,
	detectIntervalMs, suspectAfter int, epoch uint64, cache, checkpointInterval int, obs obsSettings) error {
	if addr == "" {
		return fmt.Errorf("-serve is required for -role cluster")
	}
	if writeQuorum > replicas {
		return fmt.Errorf("-write-quorum %d exceeds -replicas %d", writeQuorum, replicas)
	}
	if autoFailover && replicas < 1 {
		return fmt.Errorf("-auto-failover requires -replicas >= 1 (promotion needs a replica to promote)")
	}
	p, err := loadSnapshot(loadPath)
	if err != nil {
		return err
	}
	opts := []ganc.ClusterOption{
		ganc.WithShards(shards),
		ganc.WithRouterAddr(addr),
		ganc.WithClusterEpoch(epoch),
		ganc.WithClusterCheckpointEvery(checkpointInterval),
	}
	if replicas > 0 {
		opts = append(opts, ganc.WithReplicas(replicas))
	}
	if writeQuorum > 0 {
		opts = append(opts, ganc.WithWriteQuorum(writeQuorum))
	}
	if autoFailover {
		opts = append(opts, ganc.WithAutoFailover())
	}
	if detectIntervalMs > 0 || suspectAfter > 0 {
		opts = append(opts, ganc.WithFailureDetection(time.Duration(detectIntervalMs)*time.Millisecond, suspectAfter))
	}
	if cache > 0 {
		opts = append(opts, ganc.WithShardCacheCapacity(cache))
	}
	if obs.metrics {
		opts = append(opts, ganc.WithClusterMetrics(ganc.NewMetricsRegistry()))
	}
	if a := obs.admission(); ganc.NewAdmission(a) != nil {
		opts = append(opts, ganc.WithClusterAdmission(a))
	}
	log, logCleanup, err := obs.logger()
	if err != nil {
		return err
	}
	if logCleanup != nil {
		defer func() { _ = logCleanup() }()
	}
	if log != nil {
		opts = append(opts, ganc.WithClusterRequestLog(log))
	}
	c, err := ganc.NewCluster(p, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	shardAddrs := make([]string, c.NumShards())
	for i := range shardAddrs {
		shardAddrs[i] = c.ShardAddr(i)
	}
	fmt.Fprintf(os.Stderr, "cluster up: router on %s, %d shards on %s (dir %s)\n",
		c.RouterAddr(), c.NumShards(), strings.Join(shardAddrs, ", "), c.Dir())
	select {} // serve until killed
}

// flagWasSet reports whether the named flag was given explicitly (so the
// shard role only cross-checks identities the operator asserted).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
