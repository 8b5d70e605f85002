package ganc

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"ganc/internal/admit"
	"ganc/internal/cluster"
	"ganc/internal/obs"
	"ganc/internal/serve"
)

// Cluster facade: stand a sharded serving tier up in one process — N shard
// servers, each bootstrapped from a shard-scoped snapshot (SaveShard) with
// its own write-ahead log and checkpoint cadence, behind a consistent-hash
// scatter-gather router from internal/cluster. Users are partitioned by the
// hash ring; every shard holds the full model state but serves (and caches,
// and ingests) only its owned users, so the cluster's aggregate cache and
// compute capacity scale with the shard count. DESIGN.md §10 documents the
// architecture, the hash-ring epoch rules and the failure semantics;
// cmd/gancd runs the same roles as separate processes.

// Cluster re-exported types from internal/cluster, so drivers and tests can
// partition work exactly the way the router does.
type (
	// Ring is the consistent-hash user-sharding ring.
	Ring = cluster.Ring
	// ShardInfo describes one shard of a ring (ID + address).
	ShardInfo = cluster.ShardInfo
	// Router is the scatter-gather HTTP router.
	Router = cluster.Router
	// RouterConfig assembles a Router over an existing ring.
	RouterConfig = cluster.RouterConfig
	// ClusterInfoResponse is the router's aggregated /info payload.
	ClusterInfoResponse = cluster.InfoResponse
	// ClusterHealthResponse is the router's aggregated /health payload,
	// including per-shard admission rows when shards shed.
	ClusterHealthResponse = cluster.HealthResponse
	// ShardAdmissionStatus is one shard's admission row in the router's
	// aggregated /health: shed counts and limiter saturation.
	ShardAdmissionStatus = cluster.ShardAdmission
	// ReplicaHealthStatus is one replica's liveness/lag row in the router's
	// aggregated /health.
	ReplicaHealthStatus = cluster.ReplicaHealth
	// ReplicationStatus is a node's replication role and cursor/lag report,
	// exposed through /health and the ganc_replication_* metric series.
	ReplicationStatus = serve.ReplicationStatus
	// ReshardStats summarizes one completed Reshard: shard counts, the new
	// epoch, users moved and migrated, events migrated, double-dispatched
	// reads and the cutover window width.
	ReshardStats = cluster.ReshardStats
	// NodeLiveness is one node's row in the router's failure-detector view,
	// as listed in the aggregated /health.
	NodeLiveness = cluster.NodeLiveness
)

// Cluster error sentinels re-exported from internal/cluster.
var (
	// ErrShardUnavailable marks a shard unreachable within the retry budget.
	ErrShardUnavailable = cluster.ErrShardUnavailable
	// ErrBadPeerList marks a malformed -peers value.
	ErrBadPeerList = cluster.ErrBadPeers
	// ErrReplicaRejoin marks a rejoin refused because the node's write-ahead
	// log could not be brought up to its shard snapshot's cursor.
	ErrReplicaRejoin = cluster.ErrReplicaRejoin
)

// NewRing builds a consistent-hash ring (epoch, default virtual-node count)
// over the given shards.
func NewRing(epoch uint64, shards []ShardInfo) (*Ring, error) {
	return cluster.NewRing(epoch, 0, shards)
}

// ParsePeerTopology parses a replica-aware peer list: each comma-separated
// entry is "primary" or "primary+replica1+replica2".
func ParsePeerTopology(list string) ([]ShardInfo, error) { return cluster.ParsePeerTopology(list) }

// NewRouter builds a scatter-gather router over a ring whose shards carry
// addresses. Over a ring that declares replicas the router runs its own
// failure detector; Close it when the router retires.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// ClusterOption customizes a Cluster at construction time.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	shards          int
	replicas        int
	writeQuorum     int
	autoFailover    bool
	detectInterval  time.Duration
	suspectAfter    int
	routerAddr      string
	dir             string
	cacheCap        int
	checkpointEvery int
	epoch           uint64
	retries         int
	metrics         *obs.Registry
	reqLog          *obs.RequestLogger
	routerAdmit     admit.Config
}

// WithShards sets the shard count (default 3).
func WithShards(n int) ClusterOption {
	return func(c *clusterConfig) { c.shards = n }
}

// WithReplicas attaches n warm replicas to every shard (default 0). Each
// replica boots from the shard's snapshot, applies the primary's committed
// batches over /replicate, and serves reads when the router fails over; it
// never accepts client writes. Promotion (see Promote) turns the freshest
// replica into the shard's primary after a kill.
func WithReplicas(n int) ClusterOption {
	return func(c *clusterConfig) { c.replicas = n }
}

// WithWriteQuorum makes every shard's commits quorum-acknowledged: the
// ingest path acks a committed batch only after k of the shard's replicas
// hold it (bounded by the shipper's quorum timeout, after which the commit
// degrades to asynchronous catch-up). A quorum-acked write survives the loss
// of the primary plus any replicas beyond the k that acknowledged. Requires
// k ≤ the WithReplicas count; 0 (the default) keeps fire-and-forget
// shipping.
func WithWriteQuorum(k int) ClusterOption {
	return func(c *clusterConfig) { c.writeQuorum = k }
}

// WithAutoFailover turns on hands-off failover: the cluster's failure
// detector watches every primary, and sustained suspicion (the detector's
// consecutive-miss threshold) triggers an automatic Promote of the shard's
// freshest live replica followed by a ring republish — no operator call.
// Requires WithReplicas(n ≥ 1).
func WithAutoFailover() ClusterOption {
	return func(c *clusterConfig) { c.autoFailover = true }
}

// WithFailureDetection tunes the shared failure detector: the /health
// sampling interval and how many consecutive missed probes turn a node
// suspected (defaults 250ms and 3 — suspicion after ~750ms of sustained
// unreachability). The detector runs on every replicated cluster; this knob
// mainly serves chaos drills that want a tighter suspicion window.
func WithFailureDetection(interval time.Duration, suspectAfter int) ClusterOption {
	return func(c *clusterConfig) { c.detectInterval, c.suspectAfter = interval, suspectAfter }
}

// WithRouterAddr makes the cluster listen for router traffic on addr (e.g.
// ":8080"). Without it the router is reachable only through
// Cluster.Handler() — the in-process form tests and benchmarks mount
// themselves.
func WithRouterAddr(addr string) ClusterOption {
	return func(c *clusterConfig) { c.routerAddr = addr }
}

// WithClusterDir places the shard snapshots and write-ahead logs in dir
// (which must exist). Without it the cluster owns a temporary directory,
// removed on Close.
func WithClusterDir(dir string) ClusterOption {
	return func(c *clusterConfig) { c.dir = dir }
}

// WithShardCacheCapacity bounds every shard server's LRU cache — the
// per-node memory budget. The cluster's aggregate cache is shards × this.
func WithShardCacheCapacity(capacity int) ClusterOption {
	return func(c *clusterConfig) { c.cacheCap = capacity }
}

// WithClusterCheckpointEvery makes every shard checkpoint its snapshot after
// that many ingested events (0, the default, keeps the write-ahead log as
// the only durability between explicit SaveShards calls).
func WithClusterCheckpointEvery(every int) ClusterOption {
	return func(c *clusterConfig) { c.checkpointEvery = every }
}

// WithClusterEpoch sets the hash-ring epoch stamped into the shard
// snapshots and the router's ring (default 1). Bump it whenever the shard
// count changes.
func WithClusterEpoch(epoch uint64) ClusterOption {
	return func(c *clusterConfig) { c.epoch = epoch }
}

// WithRouterRetries sets the router's bounded retry budget per shard call
// (default 2).
func WithRouterRetries(retries int) ClusterOption {
	return func(c *clusterConfig) { c.retries = retries }
}

// WithClusterMetrics instruments the whole tier: the router registers its
// per-shard fan-out/retry/failure counters, epoch-mismatch gauges and
// per-route HTTP series on reg and mounts GET /metrics; every shard gets its
// own private registry with the full single-node catalog, scrapable on the
// shard's own address (registries must not be shared between servers).
func WithClusterMetrics(reg *MetricsRegistry) ClusterOption {
	return func(c *clusterConfig) { c.metrics = reg }
}

// WithClusterRequestLog emits one structured JSON line per router request to
// the logger (shard-level requests are not logged; enable per-shard logging
// by running shards as separate processes with cmd/gancd -request-log).
func WithClusterRequestLog(l *RequestLogger) ClusterOption {
	return func(c *clusterConfig) { c.reqLog = l }
}

// WithClusterAdmission applies admission control at the router: per-client
// rate limiting and a concurrency cap over the whole fan-out surface.
func WithClusterAdmission(cfg AdmissionConfig) ClusterOption {
	return func(c *clusterConfig) { c.routerAdmit = cfg }
}

// clusterNode is one node slot of an in-process shard: the address and
// write-ahead log that outlive a kill — so RestartShard, Promote and
// RejoinAsReplica can bring the node back where the ring expects it — and,
// while the node runs, the ShardNode serving on that address.
type clusterNode struct {
	addr    string
	walPath string

	ln   net.Listener // bound when the slot is laid out, nil once its first boot took it
	node *ShardNode   // nil while the slot is dead
	hs   *http.Server
}

// live reports whether the node is running.
func (n *clusterNode) live() bool { return n.node != nil }

// clusterShard is one in-process shard: the snapshot its nodes boot from,
// its current primary and its replica set. Promotion swaps which node sits
// in which slot.
type clusterShard struct {
	id       int
	snapPath string
	primary  *clusterNode
	replicas []*clusterNode
}

// nodes lists the shard's nodes in boot order: replicas, then the primary
// (whose shipper's first heartbeat must find them listening).
func (sh *clusterShard) nodes() []*clusterNode {
	return append(sh.replicas[:len(sh.replicas):len(sh.replicas)], sh.primary)
}

// replicaAddrs lists the shard's current replica addresses.
func (sh *clusterShard) replicaAddrs() []string {
	addrs := make([]string, len(sh.replicas))
	for i, rep := range sh.replicas {
		addrs[i] = rep.addr
	}
	return addrs
}

// Cluster is an in-process sharded serving tier: N shard servers behind a
// scatter-gather router. Construct with NewCluster; drive it through
// Handler() (or the WithRouterAddr listener); tear it down with Close.
type Cluster struct {
	cfg     clusterConfig
	router  *Router
	shards  []*clusterShard
	ownsDir bool

	// baselinePath is the pristine pre-split snapshot Reshard boots added
	// shards from; lineage records every shard count this cluster has ever
	// run, so loadShardNode accepts checkpoints stamped before a reshard;
	// reshardMu serializes topology changes — Promote, Reshard, kills and
	// rejoins all hold it, so the detector's automatic promotion cannot race
	// an operator-driven topology change.
	baselinePath string
	lineage      map[int]bool
	reshardMu    sync.Mutex

	routerLn net.Listener
	routerHS *http.Server
}

// NewCluster shard-splits a trained (snapshot-compatible) pipeline and
// stands the cluster up: each shard gets a shard-scoped snapshot
// (SaveShard), is restored from it exactly like a warm-started process,
// serves on its own loopback listener with streaming ingestion (per-shard
// write-ahead log, checkpoints back into its snapshot), and the router
// scatter-gathers over all of them.
func NewCluster(p *Pipeline, opts ...ClusterOption) (*Cluster, error) {
	if p == nil {
		return nil, fmt.Errorf("ganc: cluster requires a trained pipeline")
	}
	cfg := clusterConfig{shards: 3, epoch: 1, retries: 2}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.shards <= 0 {
		return nil, fmt.Errorf("ganc: cluster needs a positive shard count, got %d", cfg.shards)
	}
	if cfg.replicas < 0 {
		return nil, fmt.Errorf("ganc: cluster needs a non-negative replica count, got %d", cfg.replicas)
	}
	if err := validateWriteQuorum(cfg.writeQuorum, cfg.replicas); err != nil {
		return nil, err
	}
	if cfg.autoFailover && cfg.replicas == 0 {
		return nil, fmt.Errorf("ganc: auto-failover requires at least one replica per shard")
	}
	c := &Cluster{cfg: cfg}
	if cfg.dir == "" {
		dir, err := os.MkdirTemp("", "ganc-cluster-*")
		if err != nil {
			return nil, fmt.Errorf("ganc: cluster work directory: %w", err)
		}
		c.cfg.dir = dir
		c.ownsDir = true
	}

	fail := func(err error) (*Cluster, error) {
		_ = c.Close()
		return nil, err
	}

	// The pristine pre-split snapshot is what a future Reshard boots added
	// shards from: full trained state, no stream history, no shard-slice
	// identity skew. Written once, before any shard can diverge.
	c.baselinePath = filepath.Join(c.cfg.dir, "baseline.snap")
	if err := p.SaveShard(c.baselinePath, ShardIdentity{ShardID: 0, NumShards: 1, RingEpoch: cfg.epoch}); err != nil {
		return fail(fmt.Errorf("ganc: saving baseline snapshot: %w", err))
	}
	c.lineage = map[int]bool{cfg.shards: true}

	// Lay every shard out first — paths, nodes, bound listeners — so the
	// ring carries final addresses; then split every snapshot, then boot
	// (splitting while earlier shards are already resident would stack the
	// snapshot encoder's buffers on top of their heaps). Close, via fail,
	// tears down the nodes that did boot and releases the listeners of those
	// that did not.
	for i := 0; i < cfg.shards; i++ {
		sh, err := c.newShard(i)
		if err != nil {
			return fail(err)
		}
		c.shards = append(c.shards, sh)
	}
	ring, err := c.buildRing(cfg.shards)
	if err != nil {
		return fail(err)
	}
	for i, sh := range c.shards {
		if err := p.SaveShard(sh.snapPath, ShardIdentity{ShardID: i, NumShards: cfg.shards, RingEpoch: cfg.epoch}); err != nil {
			return fail(fmt.Errorf("ganc: shard-splitting snapshot for shard %d: %w", i, err))
		}
	}
	for i, sh := range c.shards {
		if err := c.bootNodes(sh); err != nil {
			return fail(fmt.Errorf("ganc: booting shard %d: %w", i, err))
		}
	}

	// Over a replicated ring the router runs the failure detector itself;
	// with auto-failover its suspicion callback promotes dead primaries
	// without an operator. The callback takes the topology lock, so holding
	// it here keeps an early suspicion from seeing a half-built cluster.
	rcfg := cluster.RouterConfig{
		Ring:           ring,
		Retries:        cfg.retries,
		Metrics:        c.cfg.metrics,
		RequestLog:     c.cfg.reqLog,
		Admission:      c.cfg.routerAdmit,
		DetectInterval: cfg.detectInterval,
		SuspectAfter:   cfg.suspectAfter,
	}
	if cfg.autoFailover {
		rcfg.OnSuspectPrimary = c.autoPromote
	}
	c.reshardMu.Lock()
	c.router, err = cluster.NewRouter(rcfg)
	c.reshardMu.Unlock()
	if err != nil {
		return fail(err)
	}

	if cfg.routerAddr != "" {
		ln, err := net.Listen("tcp", cfg.routerAddr)
		if err != nil {
			return fail(fmt.Errorf("ganc: router listener on %s: %w", cfg.routerAddr, err))
		}
		c.routerLn = ln
		c.routerHS = &http.Server{Handler: c.Handler()}
		go func() { _ = c.routerHS.Serve(ln) }()
	}
	return c, nil
}

// loadShardNode restores a shard-scoped snapshot and validates its identity
// against the cluster. The snapshot's ring epoch may be older than the
// cluster's current epoch — promotion and resharding bump the epoch without
// rewriting checkpoints — and its shard count may be any count in the
// cluster's lineage: a checkpoint written before a reshard still names the
// old topology (a shard's user set after a migration legitimately differs
// from the original split). The returned identity is stamped up to the
// current topology before it reaches a server.
func (c *Cluster) loadShardNode(sh *clusterShard) (*Pipeline, ShardIdentity, error) {
	pipe, id, err := LoadShardEngine(sh.snapPath)
	if err != nil {
		return nil, ShardIdentity{}, err
	}
	if id.ShardID != sh.id || !(id.NumShards == c.cfg.shards || c.lineage[id.NumShards]) || id.RingEpoch > c.cfg.epoch {
		return nil, ShardIdentity{}, fmt.Errorf("snapshot %s identifies as shard %d/%d epoch %d, want %d/%d epoch ≤ %d",
			sh.snapPath, id.ShardID, id.NumShards, id.RingEpoch, sh.id, c.cfg.shards, c.cfg.epoch)
	}
	id.NumShards = c.cfg.shards
	id.RingEpoch = c.cfg.epoch
	return pipe, id, nil
}

// shardServerOptions are the serving options every node of the cluster
// shares, primary and replica alike.
func (c *Cluster) shardServerOptions() []ServerOption {
	var opts []ServerOption
	if c.cfg.cacheCap > 0 {
		opts = append(opts, WithServerCacheCapacity(c.cfg.cacheCap))
	}
	if c.cfg.metrics != nil {
		opts = append(opts, serve.WithMetrics(obs.NewRegistry()))
	}
	return opts
}

// newShard lays shard i out — snapshot path, one node per replica plus the
// primary, each with its own write-ahead log and a bound loopback listener
// (so the ring carries final addresses before anything boots).
func (c *Cluster) newShard(i int) (*clusterShard, error) {
	sh := &clusterShard{id: i, snapPath: filepath.Join(c.cfg.dir, fmt.Sprintf("shard-%03d.snap", i))}
	for r := 0; r <= c.cfg.replicas; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, rep := range sh.replicas {
				rep.ln.Close()
			}
			return nil, fmt.Errorf("ganc: shard %d listener: %w", i, err)
		}
		n := &clusterNode{addr: ln.Addr().String(), ln: ln}
		if r < c.cfg.replicas {
			n.walPath = filepath.Join(c.cfg.dir, fmt.Sprintf("shard-%03d-replica-%d.wal", i, r))
			sh.replicas = append(sh.replicas, n)
		} else {
			n.walPath = filepath.Join(c.cfg.dir, fmt.Sprintf("shard-%03d.wal", i))
			sh.primary = n
		}
	}
	return sh, nil
}

// bootNodes boots every node of a laid-out shard on its bound listener, each
// restored from the shard snapshot. A failure leaves the remaining listeners
// to the teardown that follows it (killNode).
func (c *Cluster) bootNodes(sh *clusterShard) error {
	for _, n := range sh.nodes() {
		pipe, id, err := c.loadShardNode(sh)
		if err != nil {
			return err
		}
		ln := n.ln
		n.ln = nil
		if _, err := c.startNode(sh, n, ln, pipe, id, n == sh.primary, false); err != nil {
			return err
		}
	}
	return nil
}

// startNode starts a loaded shard pipeline serving on the listener in the
// given role — the same ShardNode either way. recoverLog replays the node's
// write-ahead-log suffix past the pipeline's cursor first (restart and
// rejoin; a fresh boot has none).
func (c *Cluster) startNode(sh *clusterShard, n *clusterNode, ln net.Listener, pipe *Pipeline, id ShardIdentity, primary, recoverLog bool) (replayed int, err error) {
	node, err := OpenShardNode(pipe, id, n.walPath, sh.snapPath, c.cfg.checkpointEvery, c.shardServerOptions()...)
	if err == nil && recoverLog {
		replayed, err = node.Recover()
	}
	if err == nil && primary {
		err = node.MakePrimary(sh.replicaAddrs(), c.cfg.writeQuorum)
	}
	if err != nil {
		ln.Close()
		if node != nil {
			_ = node.Close() // the boot error is the one to report
		}
		return replayed, err
	}
	n.node = node
	n.hs = &http.Server{Handler: node.Handler()}
	go func(hs *http.Server) { _ = hs.Serve(ln) }(n.hs)
	return replayed, nil
}

// buildRing builds the ring over the first n shards at the cluster's
// current epoch and node addresses.
func (c *Cluster) buildRing(n int) (*Ring, error) {
	infos := make([]ShardInfo, n)
	for i, sh := range c.shards[:n] {
		infos[i] = ShardInfo{ID: sh.id, Addr: sh.primary.addr, Replicas: sh.replicaAddrs()}
	}
	return cluster.NewRing(c.cfg.epoch, 0, infos)
}

// restamp makes every live node of the given shards adopt the cluster's
// current epoch and shard count.
func (c *Cluster) restamp(shards []*clusterShard) {
	for _, sh := range shards {
		id := ShardIdentity{ShardID: sh.id, NumShards: c.cfg.shards, RingEpoch: c.cfg.epoch}
		for _, n := range sh.nodes() {
			if n.live() {
				n.node.restamp(id)
			}
		}
	}
}

// Handler returns the router's HTTP surface (for mounting on a test
// listener or an existing mux), with the cluster admin endpoints mounted
// under /admin/: POST /admin/reshard?target=N grows or shrinks the live
// ring (see Reshard).
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.router.Handler())
	mux.HandleFunc("/admin/reshard", c.handleReshard)
	return mux
}

// handleReshard answers POST /admin/reshard?target=N: it runs a live
// reshard to the requested shard count and reports the migration
// statistics. Refused reshards (bad target, dead shard, one already in
// flight) answer 409 with the error; a malformed target answers 400.
func (c *Cluster) handleReshard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		w.WriteHeader(http.StatusMethodNotAllowed)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "reshard requires POST"})
		return
	}
	target, err := strconv.Atoi(r.URL.Query().Get("target"))
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "missing or malformed ?target=N"})
		return
	}
	stats, err := c.Reshard(target)
	if err != nil {
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	_ = json.NewEncoder(w).Encode(stats)
}

// Ring returns the cluster's hash ring.
func (c *Cluster) Ring() *Ring { return c.router.Ring() }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	return len(c.shards)
}

// OwnerShard returns the shard index owning an external user key.
func (c *Cluster) OwnerShard(userKey string) int { return c.router.Owner(userKey) }

// ShardAddr returns shard i's listen address.
func (c *Cluster) ShardAddr(i int) string {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	return c.shards[i].primary.addr
}

// RouterAddr returns the router's listen address, or "" when the cluster
// was built without WithRouterAddr.
func (c *Cluster) RouterAddr() string {
	if c.routerLn == nil {
		return ""
	}
	return c.routerLn.Addr().String()
}

// Dir returns the directory holding the shard snapshots and write-ahead
// logs.
func (c *Cluster) Dir() string { return c.cfg.dir }

// shardByIndex validates a shard index.
func (c *Cluster) shardByIndex(i int) (*clusterShard, error) {
	if i < 0 || i >= len(c.shards) {
		return nil, fmt.Errorf("ganc: shard %d out of range [0,%d)", i, len(c.shards))
	}
	return c.shards[i], nil
}

// shardState snapshots shard i's live pipeline and ingestor under the
// topology lock, so scenario drivers do not race a concurrent
// detector-triggered promotion swapping them.
func (c *Cluster) shardState(i int) (*Pipeline, *Ingestor, error) {
	nodes := c.primaries()
	if i < 0 || i >= len(nodes) {
		return nil, nil, fmt.Errorf("ganc: shard %d out of range [0,%d)", i, len(nodes))
	}
	if nodes[i] == nil {
		return nil, nil, nil
	}
	return nodes[i].pipe, nodes[i].ing, nil
}

// KillShard crashes shard i's primary: its listener and connections close,
// in-memory state drops, the write-ahead-log handle is released. Durable
// files (the shard snapshot and WAL) survive for RestartShard; replicas keep
// serving, so reads fail over while writes get the router's typed 503 until
// a restart or a promotion.
func (c *Cluster) KillShard(i int) error {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	sh, err := c.shardByIndex(i)
	if err != nil {
		return err
	}
	if !sh.primary.live() {
		return fmt.Errorf("ganc: shard %d is already dead", i)
	}
	return killNode(sh.primary)
}

// killNode crashes one node, whatever its role (a no-op on a dead one): the
// listener and connections close, the shipper stops, the write-ahead-log
// handle is released. Callers hold the topology lock where it matters.
func killNode(n *clusterNode) error {
	if n.ln != nil { // laid out, never booted
		n.ln.Close()
		n.ln = nil
	}
	if !n.live() {
		return nil
	}
	closeErr := n.hs.Close()
	if err := n.node.Close(); err != nil && closeErr == nil {
		closeErr = err
	}
	n.node, n.hs = nil, nil
	return closeErr
}

// killShards crashes every node of the given shards (Close, a shrink's
// retirement and an aborted grow's teardown) and reports the first error.
func killShards(shards []*clusterShard) error {
	var firstErr error
	for _, sh := range shards {
		for _, n := range sh.nodes() {
			if err := killNode(n); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RestartShard brings a killed shard back on its original address: the
// pipeline is restored from the shard snapshot (the last checkpoint),
// ingestion re-attaches, and the write-ahead-log suffix past the checkpoint
// cursor is replayed. Returns how many events the replay recovered.
func (c *Cluster) RestartShard(i int) (replayed int, err error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	sh, err := c.shardByIndex(i)
	if err != nil {
		return 0, err
	}
	if sh.primary.live() {
		return 0, fmt.Errorf("ganc: shard %d is still running (kill it first)", i)
	}
	return c.rebootNode(sh, sh.primary, true)
}

// Promote turns shard i's freshest live replica into its primary after a
// kill: the ring epoch bumps, the promoted node gains the client write path
// and a shipper over the remaining replica set (including the dead old
// primary's address, so a later RejoinAsReplica needs no further ring
// change), every surviving node adopts the new epoch, and the router is
// re-pointed at the new shard map. Returns the new epoch.
func (c *Cluster) Promote(i int) (uint64, error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	return c.promoteLocked(i)
}

// autoPromote is the detector's suspicion callback under WithAutoFailover:
// it re-checks, under the topology lock, that the suspected primary is
// actually dead at the address the suspicion was raised for — a restarted
// primary, a completed promotion or a false suspicion all make it a no-op —
// and then runs the regular promotion. Promotion failures (e.g. no live
// replica either) are dropped: the detector fires again next outage episode,
// and the router keeps failing reads over meanwhile.
func (c *Cluster) autoPromote(shard int, addr string) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	sh, err := c.shardByIndex(shard)
	if err != nil || sh.primary.live() || sh.primary.addr != addr {
		return
	}
	_, _ = c.promoteLocked(shard)
}

// rebootNode brings a dead node back on its original address (free to
// rebind, and the ring's address for the node must not change) in the given
// role, and replays its write-ahead-log suffix past the snapshot cursor. The
// snapshot is loaded once: a replica's log is repaired (cluster.RepairLog) to
// the cursor of the pipeline that then boots, because the live primary keeps
// checkpointing into the shared file and a second read could return a later
// cursor than the log was repaired to — the fork ErrReplicaRejoin refuses.
func (c *Cluster) rebootNode(sh *clusterShard, n *clusterNode, primary bool) (replayed int, err error) {
	pipe, id, err := c.loadShardNode(sh)
	if err == nil && !primary {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = cluster.RepairLog(ctx, nil, n.walPath, sh.primary.addr, sh.id, pipe.ingestSeq)
		cancel()
	}
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return 0, fmt.Errorf("ganc: rebinding shard %d node on %s: %w", sh.id, n.addr, err)
	}
	return c.startNode(sh, n, ln, pipe, id, primary, true)
}

// promoteLocked is Promote under an already-held topology lock. Which
// replica wins and what the next ring is are Ring.Promoted's decision; this
// swaps the two slots it names and makes the nodes and the router follow.
func (c *Cluster) promoteLocked(i int) (uint64, error) {
	sh, err := c.shardByIndex(i)
	if err != nil {
		return 0, err
	}
	if sh.primary.live() {
		return 0, fmt.Errorf("ganc: shard %d still has a live primary (kill it first)", i)
	}
	cursors := make(map[string]uint64)
	for _, rep := range sh.replicas {
		if rep.live() {
			cursors[rep.addr] = rep.node.Seq()
		}
	}
	ring, addr, err := c.router.Ring().Promoted(i, cursors)
	if err != nil {
		return 0, err
	}
	best := slices.IndexFunc(sh.replicas, func(rep *clusterNode) bool { return rep.addr == addr })
	c.cfg.epoch = ring.Epoch()
	sh.primary, sh.replicas[best] = sh.replicas[best], sh.primary
	c.restamp(c.shards)
	if err := sh.primary.node.MakePrimary(sh.replicaAddrs(), c.cfg.writeQuorum); err != nil {
		return 0, err
	}
	if err := c.router.UpdateRing(ring); err != nil {
		return 0, err
	}
	return c.cfg.epoch, nil
}

// RejoinAsReplica boots shard i's dead replica slot — after a promotion,
// the demoted old primary — back as a replica: restored from the shard
// snapshot, its own write-ahead-log suffix replayed, and re-announced to the
// new primary's shipper, which catches it up to the committed head. When the
// node's local log is shorter than the snapshot cursor (the disk did not
// survive with the full history), the missing tail is pulled from the live
// primary over POST /replicate/tail before boot (cluster.RepairLog).
// Returns how many events the local replay recovered.
func (c *Cluster) RejoinAsReplica(i int) (replayed int, err error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	sh, err := c.shardByIndex(i)
	if err != nil {
		return 0, err
	}
	if !sh.primary.live() {
		return 0, fmt.Errorf("ganc: shard %d has no live primary to rejoin under", i)
	}
	k := slices.IndexFunc(sh.replicas, func(rep *clusterNode) bool { return !rep.live() })
	if k < 0 {
		return 0, fmt.Errorf("ganc: shard %d has no dead replica slot to rejoin", i)
	}
	if replayed, err = c.rebootNode(sh, sh.replicas[k], false); err != nil {
		return replayed, err
	}
	// Tell the primary's shipper where the rejoined node actually is; its
	// catch-up loop re-feeds the rest from the primary's WAL.
	if sp := sh.primary.node.shipper.Load(); sp != nil {
		sp.Resync()
	}
	return replayed, nil
}

// Reshard grows or shrinks the cluster to target shards with zero
// client-visible downtime. Added shards boot from the pristine baseline
// snapshot (full trained state, no stream history) at ring epoch E+1; the
// router then runs the staged cutover between the current ring and the E+1
// ring (cluster.Router.Reshard: migrate every moving user's history to its
// new owner, flip its reads once it has landed, publish the ring to every
// node). Shrinking retires the highest-numbered shards after a short drain
// grace; their files stay on disk (a later grow wipes and re-migrates them).
//
// Reshard requires every current primary to be live (each is a migration
// source) and serializes with other topology changes. On an error before the
// ring publish the transition is aborted: routing reverts to the old ring
// and added shards are torn down.
func (c *Cluster) Reshard(target int) (*ReshardStats, error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	oldN := len(c.shards)
	if target <= 0 {
		return nil, fmt.Errorf("ganc: reshard needs a positive shard count, got %d", target)
	}
	if target == oldN {
		return nil, fmt.Errorf("ganc: cluster already has %d shards", oldN)
	}
	for _, sh := range c.shards {
		if !sh.primary.live() {
			return nil, fmt.Errorf("ganc: shard %d is dead; restart or promote it before resharding", sh.id)
		}
	}
	oldEpoch := c.cfg.epoch
	newEpoch := oldEpoch + 1

	// The new topology is effective for everything booted from here on: the
	// added shards' snapshots are stamped with it, and loadShardNode keeps
	// accepting pre-reshard checkpoints through the lineage set.
	c.cfg.epoch, c.cfg.shards = newEpoch, target
	lineageAdded := !c.lineage[target]
	c.lineage[target] = true
	// fail reverts everything a reshard did before the ring publish: added
	// shards are torn down and the old topology is effective again.
	fail := func(err error) (*ReshardStats, error) {
		_ = killShards(c.shards[oldN:])
		c.shards = c.shards[:oldN]
		c.cfg.epoch, c.cfg.shards = oldEpoch, oldN
		if lineageAdded {
			delete(c.lineage, target)
		}
		return nil, err
	}

	if target > oldN {
		base, _, err := LoadShardEngine(c.baselinePath)
		if err != nil {
			return fail(fmt.Errorf("ganc: loading baseline snapshot: %w", err))
		}
		for i := oldN; i < target; i++ {
			sh, err := c.newShard(i)
			if err == nil {
				c.shards = append(c.shards, sh)
				// A slot retired by an earlier shrink leaves its files
				// behind; the re-added shard re-migrates its history in full.
				for _, n := range sh.nodes() {
					_ = os.Remove(n.walPath)
				}
				if err = base.SaveShard(sh.snapPath, ShardIdentity{ShardID: i, NumShards: target, RingEpoch: newEpoch}); err == nil {
					err = c.bootNodes(sh)
				}
			}
			if err != nil {
				return fail(fmt.Errorf("ganc: adding shard %d: %w", i, err))
			}
		}
	}

	nextRing, err := c.buildRing(target)
	if err != nil {
		return fail(err)
	}
	primaries := make([]*cluster.Node, len(c.shards))
	for i, sh := range c.shards {
		primaries[i] = sh.primary.node.streams
	}
	// At the commit point every surviving node adopts the new epoch and count.
	stats, err := c.router.Reshard(nextRing, primaries, func() { c.restamp(c.shards[:target]) })
	if err != nil {
		return fail(err)
	}

	// Shrink: the retired shards stopped receiving writes when the cutover
	// began and reads at their last user's flip; a short grace period lets
	// in-flight requests drain before their listeners close. Their files
	// stay on disk — a later grow wipes and re-migrates them. A teardown
	// error is reported alongside the stats: the reshard itself has already
	// been published.
	if target < oldN {
		time.Sleep(200 * time.Millisecond)
		err := killShards(c.shards[target:])
		c.shards = c.shards[:target]
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// primaries snapshots every shard's running primary, by shard index (nil for
// a dead one), under the topology lock. SaveShards and WaitForReplicaSync
// work on the snapshot outside the lock, so they neither race nor block a
// concurrent promotion or reshard.
func (c *Cluster) primaries() []*ShardNode {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	nodes := make([]*ShardNode, len(c.shards))
	for i, sh := range c.shards {
		nodes[i] = sh.primary.node
	}
	return nodes
}

// SaveShards checkpoints every live shard's current state into its shard
// snapshot (the same files RestartShard restores from).
func (c *Cluster) SaveShards() error {
	for i, n := range c.primaries() {
		if n == nil {
			continue
		}
		if err := n.ing.Checkpoint(); err != nil {
			return fmt.Errorf("ganc: checkpointing shard %d: %w", i, err)
		}
	}
	return nil
}

// ShardVersion returns shard i's serving-engine generation (0 for a dead
// shard).
func (c *Cluster) ShardVersion(i int) int {
	if n := c.primaries()[i]; n != nil {
		return n.srv.Version()
	}
	return 0
}

// Epoch returns the cluster's current ring epoch (bumped by every Promote —
// manual or detector-triggered — and every Reshard).
func (c *Cluster) Epoch() uint64 {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	return c.cfg.epoch
}

// ReplicaAddr returns shard i's replica r's listen address.
func (c *Cluster) ReplicaAddr(i, r int) string {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	return c.shards[i].replicas[r].addr
}

// ReplicaLag returns shard i's widest replica lag in committed events (0
// with no live shipper).
func (c *Cluster) ReplicaLag(i int) uint64 {
	if n := c.primaries()[i]; n != nil {
		if sp := n.shipper.Load(); sp != nil {
			return sp.MaxLag()
		}
	}
	return 0
}

// WaitForReplicaSync blocks until every live primary's replicas have
// acknowledged its committed head, or the timeout expires.
func (c *Cluster) WaitForReplicaSync(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, n := range c.primaries() {
		if n == nil {
			continue
		}
		if sp := n.shipper.Load(); sp != nil {
			if err := sp.WaitSync(max(time.Until(deadline), time.Millisecond)); err != nil {
				return fmt.Errorf("ganc: shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// Close tears the cluster down: every shard is killed, the router listener
// (if any) stops, and the work directory is removed when the cluster owns
// it.
func (c *Cluster) Close() error {
	// The router's detector stops before the topology lock is taken: a
	// suspicion callback fired during teardown blocks on that lock, and Close
	// waiting for it while holding the lock would deadlock.
	if c.router != nil {
		c.router.Close()
	}
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()
	firstErr := killShards(c.shards)
	if c.routerHS != nil {
		if err := c.routerHS.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		c.routerHS, c.routerLn = nil, nil
	}
	if c.ownsDir && c.cfg.dir != "" {
		if err := os.RemoveAll(c.cfg.dir); err != nil && firstErr == nil {
			firstErr = err
		}
		c.ownsDir = false
	}
	return firstErr
}

// WaitReady blocks until every shard answers /health (or the timeout
// expires) — a convenience for callers that start driving traffic
// immediately after NewCluster. It probes the node set as of the call.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	type target struct{ addr, what string }
	c.reshardMu.Lock()
	var targets []target
	for _, sh := range c.shards {
		targets = append(targets, target{sh.primary.addr, fmt.Sprintf("shard %d", sh.id)})
		for r, rep := range sh.replicas {
			if rep.live() {
				targets = append(targets, target{rep.addr, fmt.Sprintf("shard %d replica %d", sh.id, r)})
			}
		}
	}
	c.reshardMu.Unlock()
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for _, t := range targets {
		for {
			resp, err := client.Get("http://" + t.addr + "/health")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ganc: %s not ready within %v", t.what, timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
