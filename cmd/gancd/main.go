// Command gancd is the serving daemon: it runs one role of a (possibly
// sharded) GANC serving deployment from warm-start snapshots. Training and
// evaluation live in cmd/ganc; gancd only loads, splits and serves.
//
// Roles (-role):
//
//	standalone  serve one snapshot on one node, with streaming ingestion
//	            behind POST /ingest
//	split       shard-split a snapshot: write N shard-scoped snapshots
//	            (shard id, hash-ring epoch and the -write-quorum K every
//	            primary of the shard acks under, in each) into -out
//	shard       serve one shard snapshot as the shard's primary; refuses
//	            snapshots whose identity disagrees with the
//	            -shards/-shard-id/-epoch/-write-quorum flags. With
//	            -replica-addrs it ships every committed ingest batch to the
//	            listed replica nodes, and acks a write only after the
//	            snapshot's write quorum of them hold it
//	replica     serve one shard snapshot as a warm replica of its shard: the
//	            same node as the shard role, started as a replica — client
//	            writes answer a typed 409, POST /replicate applies the
//	            primary's committed batches into the node's own write-ahead
//	            log, /health reports the replication cursor and lag — and
//	            flipped to primary, under the snapshot's write quorum, when
//	            the router's ring push names it, checkpointing from then on
//	            every -checkpoint-interval events. A node whose -ingest-log
//	            ends before its snapshot's cursor (a replica restarted over a
//	            snapshot its primary checkpointed into) is refused at
//	            start-up
//	router      scatter-gather front over -peers: proxies /recommend, fans
//	            /recommend/batch and /ingest out by user ownership, merges,
//	            aggregates /info and /health, answers typed 503s for dead
//	            shards; a failed shard call is retried twice, a write only
//	            when the shard cannot have applied it. A "primary+replica"
//	            peer entry makes the router run its failure detector
//	            (-detect-interval-ms; 3 missed probes suspect a node) and
//	            fail reads over to that shard's replicas from the detector's
//	            cached view, to a replica at most 1024 events behind;
//	            -auto-failover promotes a suspected-dead primary's freshest
//	            replica by pushing the next ring to every node over
//	            POST /admin/ring. POST /admin/reshard grows or shrinks the
//	            ring live
//
// The shard and replica roles run the same node assembly ganc.Cluster boots
// in-process (ganc.ShardNode): both mount POST /replicate, /migrate,
// /replicate/tail and /admin/ring in front of the serving routes, and GET
// /hop, the upgrade the router reaches every one of those routes through; the
// role only decides which stream routes accept — a primary takes client
// writes and /migrate chunks and refuses pushed /replicate batches, a replica
// the reverse, each refusal a typed 409.
//
// A 3-shard deployment, one process per node:
//
//	ganc -preset ML-1M -arec Pop -save model.snap
//	gancd -role split -load model.snap -shards 3 -out shards/
//	gancd -role shard -load shards/shard-000.snap -ingest-log s0.wal -serve :8081 &
//	gancd -role shard -load shards/shard-001.snap -ingest-log s1.wal -serve :8082 &
//	gancd -role shard -load shards/shard-002.snap -ingest-log s2.wal -serve :8083 &
//	gancd -role router -peers :8081,:8082,:8083 -serve :8080
//
// The same topology with one replica behind shard 0, quorum-acked — the
// quorum is split into the snapshots, so the replica acks under it too once
// promoted:
//
//	gancd -role split -load model.snap -shards 3 -write-quorum 1 -out shards/
//	gancd -role replica -load shards/shard-000.snap -ingest-log r0.wal -serve :9081 &
//	gancd -role shard -load shards/shard-000.snap -ingest-log s0.wal \
//	      -replica-addrs :9081 -serve :8081 &
//	gancd -role router -peers :8081+:9081,:8082,:8083 -auto-failover -serve :8080
//
// The router reshards live — it reads every involved primary's write-ahead
// log over /replicate/tail and streams the moving users' histories to their
// new owners while traffic keeps flowing (DESIGN.md §14). A grow names the
// added shards, whose processes serve a snapshot split for the new count:
//
//	gancd -role split -load model.snap -shards 4 -out shards4/
//	gancd -role shard -load shards4/shard-003.snap -ingest-log s3.wal -serve :8084 &
//	curl -X POST 'http://localhost:8080/admin/reshard?target=4&add=:8084'
//
// The router and the shard snapshots must agree on (epoch, shard count):
// ownership is a pure function of that pair, so a mismatched deployment
// would silently route users to shards that never ingested their events.
// Shard servers embed their identity in /info and the router flags
// mismatches there; a ring push (promotion, reshard) moves a node's identity
// with the ring (see DESIGN.md §10 for the epoch rules).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"ganc"
)

// options is the parsed command line. set records which flags were given
// explicitly, so the node roles cross-check only the identity the operator
// asserted.
type options struct {
	role, load, serve, out   string
	shards, shardID          int
	epoch                    uint64
	peers, replicaAddrs      string
	writeQuorum              int
	autoFailover             bool
	detectIntervalMs         int
	cache                    int
	ingestLog                string
	checkpointInterval       int
	metrics                  bool
	requestLog               string
	rateLimit, rateBurst     float64
	maxConcurrent, maxWaitMs int
	set                      map[string]bool
}

// observability names the flags every serving role reads: the metrics
// endpoint, the request log and admission control.
const observability = "metrics request-log rate-limit rate-burst max-concurrent max-wait-ms"

// roleFlags is the one table of which flags each role reads, beside -role
// itself and, on every role that takes -serve, the observability flags. A flag
// given to a role outside its row is refused: accepted, it would change
// nothing. (README's role matrix is lint-checked against this table.)
var roleFlags = []struct{ role, flags string }{
	{"standalone", "load serve cache ingest-log checkpoint-interval"},
	{"split", "load out shards epoch write-quorum"},
	{"shard", "load serve shards shard-id epoch write-quorum cache ingest-log checkpoint-interval replica-addrs"},
	// A node started as a replica ships to no one; its checkpoint cadence
	// starts only when a promotion makes it primary (until then it may share
	// the snapshot file with its primary).
	{"replica", "load serve ingest-log shards shard-id epoch write-quorum cache checkpoint-interval"},
	{"router", "peers serve epoch detect-interval-ms auto-failover"},
}

// readers lists the roles that read the flag, in table order.
func readers(name string) []string {
	var out []string
	for _, row := range roleFlags {
		flags := strings.Fields("role " + row.flags)
		if slices.Contains(flags, "serve") {
			flags = append(flags, strings.Fields(observability)...)
		}
		if slices.Contains(flags, name) {
			out = append(out, row.role)
		}
	}
	return out
}

// parseFlags maps the command line to options and rejects the flag
// combinations no role can honor.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("gancd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.role, "role", "standalone", "standalone | split | shard | replica | router")
	fs.StringVar(&o.load, "load", "", "snapshot to load (written by ganc -save, or a shard snapshot from -role split)")
	fs.StringVar(&o.serve, "serve", "", "listen address (e.g. :8080)")
	fs.IntVar(&o.shards, "shards", 3, "shard count (split; cross-checked in the shard and replica roles)")
	fs.IntVar(&o.shardID, "shard-id", -1, "expected shard id (shard and replica roles; -1 trusts the snapshot)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated shard addresses in shard-id order (router role); \"primary+replica1+replica2\" entries declare read-failover replicas")
	fs.StringVar(&o.replicaAddrs, "replica-addrs", "", "comma-separated replica addresses this shard ships committed batches to (shard role)")
	fs.IntVar(&o.writeQuorum, "write-quorum", 0, "k-of-n quorum writes: the shard's primary acks a committed batch only after k replicas hold it (split; cross-checked in the shard and replica roles; 0 = ship without waiting)")
	fs.BoolVar(&o.autoFailover, "auto-failover", false, "router role: promote a suspected-dead primary's freshest replica automatically, no operator call")
	fs.IntVar(&o.detectIntervalMs, "detect-interval-ms", 0, "failure-detector /health sampling interval in ms (router role; 0 = default 250)")
	fs.Uint64Var(&o.epoch, "epoch", 1, "hash-ring epoch (split, router; cross-checked in the shard and replica roles)")
	fs.StringVar(&o.out, "out", "", "output directory for shard snapshots (split role)")
	fs.IntVar(&o.cache, "cache", 0, "per-node LRU cache capacity (0 = serving default)")
	fs.StringVar(&o.ingestLog, "ingest-log", "", "write-ahead log path (standalone, shard and replica roles)")
	fs.IntVar(&o.checkpointInterval, "checkpoint-interval", 0, "checkpoint the snapshot every this many ingested events (standalone and shard roles, and a replica once promoted; 0 = never)")
	fs.BoolVar(&o.metrics, "metrics", false, "mount GET /metrics (Prometheus text format) on serving roles")
	fs.StringVar(&o.requestLog, "request-log", "", "append one JSON line per request to this file (\"-\" = stderr)")
	fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-client sustained requests/second (0 = unlimited)")
	fs.Float64Var(&o.rateBurst, "rate-burst", 0, "per-client burst allowance (0 = max(rate-limit, 1))")
	fs.IntVar(&o.maxConcurrent, "max-concurrent", 0, "cap on requests inside handlers at once (0 = uncapped)")
	fs.IntVar(&o.maxWaitMs, "max-wait-ms", 0, "how long an over-capacity request waits for a slot before a 429 (0 = shed immediately)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	// Every role reads -role, so its readers are the roles there are.
	if roles := readers("role"); !slices.Contains(roles, o.role) {
		return o, fmt.Errorf("unknown -role %q (%s)", o.role, strings.Join(roles, ", "))
	}
	o.set = make(map[string]bool)
	var stray error
	fs.Visit(func(f *flag.Flag) {
		o.set[f.Name] = true
		if roles := readers(f.Name); stray == nil && !slices.Contains(roles, o.role) {
			stray = fmt.Errorf("-%s does not apply to -role %s (it is read by -role %s)", f.Name, o.role, strings.Join(roles, ", "))
		}
	})
	if stray != nil {
		return o, stray
	}

	switch {
	case o.role != "split" && o.serve == "":
		return o, fmt.Errorf("-serve is required for -role %s", o.role)
	case o.role == "split" && o.out == "":
		return o, fmt.Errorf("-out directory is required for -role split")
	case o.role == "split" && o.shards <= 0:
		return o, fmt.Errorf("-shards must be positive, got %d", o.shards)
	case o.role == "replica" && o.ingestLog == "":
		return o, fmt.Errorf("-ingest-log is required for -role replica (the replica's own write-ahead log makes it promotable)")
	}
	return o, nil
}

// admission translates the flags into an admission configuration (the zero
// value disables both gates).
func (o options) admission() ganc.AdmissionConfig {
	return ganc.AdmissionConfig{
		RatePerSec:    o.rateLimit,
		Burst:         o.rateBurst,
		MaxConcurrent: o.maxConcurrent,
		MaxWait:       time.Duration(o.maxWaitMs) * time.Millisecond,
	}
}

// logger opens the request-log sink ("-" = stderr). The cleanup closes a
// file sink.
func (o options) logger(stderr io.Writer) (*ganc.RequestLogger, func(), error) {
	if o.requestLog == "" {
		return nil, func() {}, nil
	}
	if o.requestLog == "-" {
		return ganc.NewRequestLogger(stderr), func() {}, nil
	}
	f, err := os.OpenFile(o.requestLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("opening request log: %w", err)
	}
	// A lost log line at shutdown is not worth failing the exit over.
	return ganc.NewRequestLogger(f), func() { _ = f.Close() }, nil
}

// serverOptions translates the flags into single-node server options.
func (o options) serverOptions(stderr io.Writer) ([]ganc.ServerOption, func(), error) {
	opts := []ganc.ServerOption{ganc.WithServerAdmission(o.admission())}
	if o.metrics {
		opts = append(opts, ganc.WithMetrics(ganc.NewMetricsRegistry()))
	}
	log, cleanup, err := o.logger(stderr)
	if err != nil {
		return nil, nil, err
	}
	if log != nil {
		opts = append(opts, ganc.WithRequestLog(log))
	}
	if o.cache > 0 {
		opts = append(opts, ganc.WithServerCacheCapacity(o.cache))
	}
	return opts, cleanup, nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gancd:", err)
		os.Exit(1)
	}
}

// run executes one role and, for the serving roles, blocks until ctx is
// cancelled (an interrupt, in main), then shuts the listener down and returns.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	switch o.role {
	case "standalone":
		return runStandalone(ctx, o, stderr)
	case "split":
		return runSplit(o, stderr)
	case "shard", "replica":
		return runNode(ctx, o, stderr)
	default: // router: parseFlags refused every other role
		return runRouter(ctx, o, stderr)
	}
}

// listenAndServe serves handler on addr until ctx is cancelled, then closes
// the listener and drains in-flight requests for up to five seconds.
func listenAndServe(ctx context.Context, addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return hs.Close()
	}
	return nil
}

// loadSnapshot loads the snapshot -load names; LoadEngine's errors name the
// path and the cause.
func loadSnapshot(path string) (*ganc.Pipeline, error) {
	if path == "" {
		return nil, fmt.Errorf("-load is required (train and snapshot with: ganc -arec Pop -save model.snap)")
	}
	return ganc.LoadEngine(path)
}

// reportReplay tells the operator what write-ahead-log recovery restored.
func reportReplay(stderr io.Writer, replayed int, log string, seq uint64) {
	if replayed > 0 {
		fmt.Fprintf(stderr, "replayed %d events from %s (resuming at seq %d)\n", replayed, log, seq)
	}
}

// runStandalone serves a plain snapshot on one node, with streaming
// ingestion behind POST /ingest.
func runStandalone(ctx context.Context, o options, stderr io.Writer) error {
	p, err := loadSnapshot(o.load)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "loaded %s from %s: %d users, %d items, %d ratings\n",
		p.Name(), o.load, p.Train().NumUsers(), p.Train().NumItems(), p.Train().NumRatings())
	opts, cleanup, err := o.serverOptions(stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	srv, err := ganc.NewServer(p.Train(), p, p.TopN(), opts...)
	if err != nil {
		return err
	}
	var ingOpts []ganc.IngestorOption
	if o.ingestLog != "" {
		ingOpts = append(ingOpts, ganc.WithIngestLog(o.ingestLog))
	}
	if o.checkpointInterval > 0 {
		ingOpts = append(ingOpts, ganc.WithIngestCheckpoint(o.load, o.checkpointInterval))
	}
	ing, err := ganc.NewIngestor(srv, p, ingOpts...)
	if err != nil {
		return fmt.Errorf("enabling ingestion: %w", err)
	}
	defer ing.Close()
	replayed, err := ing.Recover()
	if err != nil {
		return fmt.Errorf("replaying ingest log %s: %w", o.ingestLog, err)
	}
	reportReplay(stderr, replayed, o.ingestLog, ing.Seq())
	fmt.Fprintf(stderr, "serving %s on %s\n", p.Name(), o.serve)
	return listenAndServe(ctx, o.serve, srv.Handler())
}

// runSplit writes N shard-scoped snapshots of one plain snapshot.
func runSplit(o options, stderr io.Writer) error {
	p, err := loadSnapshot(o.load)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	for i := 0; i < o.shards; i++ {
		path := filepath.Join(o.out, fmt.Sprintf("shard-%03d.snap", i))
		id := ganc.ShardIdentity{ShardID: i, NumShards: o.shards, RingEpoch: o.epoch, WriteQuorum: o.writeQuorum}
		if err := p.SaveShard(path, id); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		fmt.Fprintf(stderr, "wrote %s (shard %d/%d, epoch %d, write quorum %d)\n", path, i, o.shards, o.epoch, o.writeQuorum)
	}
	fmt.Fprintf(stderr, "serve each with: gancd -role shard -load %s/shard-NNN.snap -serve :PORT\n", o.out)
	return nil
}

// loadShardSnapshot loads a shard snapshot, cross-checking its identity
// against the flags that were given.
func loadShardSnapshot(o options) (*ganc.Pipeline, ganc.ShardIdentity, error) {
	var id ganc.ShardIdentity
	if o.load == "" {
		return nil, id, fmt.Errorf("-load is required (produce shard snapshots with -role split)")
	}
	p, id, err := ganc.LoadShardEngine(o.load)
	if err != nil {
		return nil, id, err
	}
	if o.shardID >= 0 && id.ShardID != o.shardID {
		return nil, id, fmt.Errorf("snapshot %s is shard %d, but -shard-id says %d", o.load, id.ShardID, o.shardID)
	}
	if o.set["shards"] && id.NumShards != o.shards {
		return nil, id, fmt.Errorf("snapshot %s was cut for %d shards, but -shards says %d", o.load, id.NumShards, o.shards)
	}
	if o.set["epoch"] && id.RingEpoch != o.epoch {
		return nil, id, fmt.Errorf("snapshot %s was cut for ring epoch %d, but -epoch says %d (re-split after membership changes)",
			o.load, id.RingEpoch, o.epoch)
	}
	if o.set["write-quorum"] && id.WriteQuorum != o.writeQuorum {
		return nil, id, fmt.Errorf("snapshot %s was cut for write quorum %d, but -write-quorum says %d", o.load, id.WriteQuorum, o.writeQuorum)
	}
	return p, id, nil
}

// runNode serves one shard snapshot as a node of its shard — the shard and
// replica roles alike: the same ganc.ShardNode ganc.Cluster boots
// in-process, recovered from its own write-ahead log. The shard role then
// flips it to primary (client writes, /migrate, shipping to -replica-addrs
// under the snapshot's write quorum); the replica role leaves it as opened.
func runNode(ctx context.Context, o options, stderr io.Writer) error {
	p, id, err := loadShardSnapshot(o)
	if err != nil {
		return err
	}
	opts, cleanup, err := o.serverOptions(stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	node, err := ganc.OpenShardNode(p, id, o.ingestLog, o.load, o.checkpointInterval, opts...)
	if err != nil {
		return err
	}
	defer node.Close()
	replayed, err := node.Recover()
	if err != nil {
		return fmt.Errorf("replaying ingest log %s: %w", o.ingestLog, err)
	}
	reportReplay(stderr, replayed, o.ingestLog, node.Seq())
	as := "replica"
	if o.role == "shard" {
		var replicas []string
		for _, a := range strings.Split(o.replicaAddrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				replicas = append(replicas, a)
			}
		}
		if err := node.MakePrimary(replicas); err != nil {
			return fmt.Errorf("-replica-addrs: %w", err)
		}
		as = "primary"
		if len(replicas) > 0 {
			fmt.Fprintf(stderr, "replicating to %s (write quorum %d of %d)\n", strings.Join(replicas, ", "), id.WriteQuorum, len(replicas))
		}
	}
	fmt.Fprintf(stderr, "serving %s on %s as %s of shard %d/%d epoch %d\n",
		p.Name(), o.serve, as, id.ShardID, id.NumShards, id.RingEpoch)
	return listenAndServe(ctx, o.serve, node.Handler())
}

// runRouter fronts the peers with the scatter-gather router. When any peer
// entry declares replicas the router runs its own failure detector, so
// failed reads route by the cached liveness view — zero per-request probes —
// and suspected primaries are skipped without burning the retry budget;
// with -auto-failover a suspected primary is replaced (Router.Promote). The
// router's POST /admin/reshard grows or shrinks the ring (Router.Reshard).
func runRouter(ctx context.Context, o options, stderr io.Writer) error {
	infos, err := ganc.ParsePeerTopology(o.peers)
	if err != nil {
		return fmt.Errorf("-peers: %w (expected \"host1:port,host2:port,…\" in shard-id order; append \"+replicahost:port\" for read-failover replicas)", err)
	}
	if o.autoFailover && !slices.ContainsFunc(infos, func(s ganc.ShardInfo) bool { return len(s.Replicas) > 0 }) {
		return fmt.Errorf("-auto-failover needs a \"primary+replica\" entry in -peers: there is no replica to promote")
	}
	ring, err := ganc.NewRing(o.epoch, infos)
	if err != nil {
		return err
	}
	log, cleanup, err := o.logger(stderr)
	if err != nil {
		return err
	}
	defer cleanup()
	cfg := ganc.RouterConfig{
		Ring:           ring,
		DetectInterval: time.Duration(o.detectIntervalMs) * time.Millisecond,
		AutoFailover:   o.autoFailover,
		Admission:      o.admission(),
		RequestLog:     log,
	}
	if o.metrics {
		cfg.Metrics = ganc.NewMetricsRegistry()
	}
	rt, err := ganc.NewRouter(cfg)
	if err != nil {
		return err
	}
	defer rt.Close()
	fmt.Fprintf(stderr, "routing over %d shards (epoch %d) on %s: %s\n", ring.NumShards(), o.epoch, o.serve, o.peers)
	return listenAndServe(ctx, o.serve, rt.Handler())
}
