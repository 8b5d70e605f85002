package ganc

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
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
// architecture, the hash-ring epoch rules and the failure semantics. The
// Cluster is the form tests, drills and the benchmark drive; a deployment
// runs the same nodes and router as separate cmd/gancd processes.

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
// addresses. It keeps pooled connections to the nodes and, over a ring that
// declares replicas, runs its own failure detector; Close it when the router
// retires.
func NewRouter(cfg RouterConfig) (*Router, error) { return cluster.NewRouter(cfg) }

// ClusterOption customizes a Cluster at construction time.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	shards          int
	replicas        int
	writeQuorum     int
	autoFailover    bool
	detectInterval  time.Duration
	dir             string
	cacheCap        int
	checkpointEvery int
	metrics         *obs.Registry
	routerAdmit     admit.Config
}

// bootEpoch is the ring epoch a cluster boots at, stamped into its shard
// snapshots and the router's first ring; Promote and Reshard bump it from
// there.
const bootEpoch = 1

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
// shipping. k is part of every shard snapshot the cluster writes (its
// ShardIdentity), so a promoted replica acks under it too.
func WithWriteQuorum(k int) ClusterOption {
	return func(c *clusterConfig) { c.writeQuorum = k }
}

// WithAutoFailover turns on hands-off failover: the router's failure
// detector watches every primary, and sustained suspicion (the detector's
// consecutive-miss threshold) makes the router promote the shard's freshest
// live replica (Router.Promote) — no operator call. Requires
// WithReplicas(n ≥ 1).
func WithAutoFailover() ClusterOption {
	return func(c *clusterConfig) { c.autoFailover = true }
}

// WithFailureDetection sets the shared failure detector's /health sampling
// interval (default 250ms). A node turns suspected after 3 consecutive missed
// probes — with the default interval, ~750ms of sustained unreachability. The
// detector runs on every replicated cluster; this knob mainly serves chaos
// drills that want a tighter suspicion window.
func WithFailureDetection(interval time.Duration) ClusterOption {
	return func(c *clusterConfig) { c.detectInterval = interval }
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

// WithClusterMetrics instruments the whole tier: the router registers its
// per-shard fan-out/retry/failure counters, epoch-mismatch gauges and
// per-route HTTP series on reg and mounts GET /metrics; every shard gets its
// own private registry with the full single-node catalog, scrapable on the
// shard's own address (registries must not be shared between servers).
func WithClusterMetrics(reg *MetricsRegistry) ClusterOption {
	return func(c *clusterConfig) { c.metrics = reg }
}

// WithClusterAdmission applies admission control at the router: per-client
// rate limiting and a concurrency cap over the whole fan-out surface.
func WithClusterAdmission(cfg AdmissionConfig) ClusterOption {
	return func(c *clusterConfig) { c.routerAdmit = cfg }
}

// clusterNode is one node slot of an in-process shard: the address and
// write-ahead log that outlive a kill — so RestartShard and RejoinAsReplica
// bring the node back where the ring names it — and, while the node runs, the
// ShardNode serving on that address.
type clusterNode struct {
	addr    string
	walPath string

	ln   net.Listener // bound when the slot is laid out, nil once its first boot took it
	node *ShardNode   // nil while the slot is dead
	hs   *http.Server
}

// live reports whether the node is running.
func (n *clusterNode) live() bool { return n != nil && n.node != nil }

// clusterShard is one in-process shard: the snapshot its nodes boot from and
// its nodes, laid out replicas first and the boot primary last. Which node is
// the primary now is the router's ring's to say (Cluster.primary).
type clusterShard struct {
	id       int
	snapPath string
	nodes    []*clusterNode
}

// node returns the shard's node at addr (nil when none is).
func (sh *clusterShard) node(addr string) *clusterNode {
	for _, n := range sh.nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// bootInfo is the ring entry of a freshly laid-out shard: the last node is
// the primary, the others its replicas (in slot order, so ReplicaAddr's r
// is the slot).
func (sh *clusterShard) bootInfo() ShardInfo {
	last := len(sh.nodes) - 1
	info := ShardInfo{ID: sh.id, Addr: sh.nodes[last].addr}
	for _, n := range sh.nodes[:last] {
		info.Replicas = append(info.Replicas, n.addr)
	}
	return info
}

// Cluster is an in-process sharded serving tier: N shard servers behind a
// scatter-gather router. Construct with NewCluster; drive it through
// Handler(), mounted on a listener of the caller's; tear it down with Close.
type Cluster struct {
	cfg     clusterConfig
	router  *Router
	ownsDir bool

	// baselinePath is the pristine pre-split snapshot Reshard boots added
	// shards from; lineage records every shard count this cluster has ever
	// run, so loadShardNode accepts checkpoints stamped before a reshard.
	baselinePath string
	lineage      map[int]bool

	// mu guards the node table — the shards and each node's running state —
	// across kills, restarts, rejoins and reshards. The topology (each
	// shard's primary and replicas, the epoch, the shard count) is the
	// router's ring and nothing else.
	mu     sync.Mutex
	shards []*clusterShard
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
	cfg := clusterConfig{shards: 3}
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
	if err := p.SaveShard(c.baselinePath, ShardIdentity{ShardID: 0, NumShards: 1, RingEpoch: bootEpoch}); err != nil {
		return fail(fmt.Errorf("ganc: saving baseline snapshot: %w", err))
	}
	c.lineage = map[int]bool{cfg.shards: true}

	// Lay every shard out first — paths, nodes, bound listeners — so the
	// ring carries final addresses; then split every snapshot, then boot
	// (splitting while earlier shards are already resident would stack the
	// snapshot encoder's buffers on top of their heaps). Close, via fail,
	// tears down the nodes that did boot and releases the listeners of those
	// that did not.
	infos := make([]ShardInfo, cfg.shards)
	for i := range infos {
		sh, err := c.newShard(i)
		if err != nil {
			return fail(err)
		}
		c.shards = append(c.shards, sh)
		infos[i] = sh.bootInfo()
	}
	ring, err := cluster.NewRing(bootEpoch, 0, infos)
	if err != nil {
		return fail(err)
	}
	for i, sh := range c.shards {
		if err := p.SaveShard(sh.snapPath, ShardIdentity{ShardID: i, NumShards: cfg.shards, RingEpoch: bootEpoch, WriteQuorum: cfg.writeQuorum}); err != nil {
			return fail(fmt.Errorf("ganc: shard-splitting snapshot for shard %d: %w", i, err))
		}
	}
	for i, sh := range c.shards {
		if err := c.bootNodes(sh, cfg.shards, bootEpoch); err != nil {
			return fail(fmt.Errorf("ganc: booting shard %d: %w", i, err))
		}
	}

	// Over a replicated ring the router runs the failure detector itself;
	// with auto-failover its suspicion promotes dead primaries without an
	// operator.
	c.router, err = cluster.NewRouter(cluster.RouterConfig{
		Ring:           ring,
		Metrics:        c.cfg.metrics,
		Admission:      c.cfg.routerAdmit,
		DetectInterval: cfg.detectInterval,
		AutoFailover:   cfg.autoFailover,
	})
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// loadShardNode restores a shard-scoped snapshot and validates its identity
// against the topology the node boots into (numShards at epoch). The
// snapshot's ring epoch may be older — promotion and resharding bump the
// epoch without rewriting checkpoints — and its shard count may be any count
// in the cluster's lineage: a checkpoint written before a reshard still names
// the old topology (a shard's user set after a migration legitimately differs
// from the original split). The returned identity is stamped up to the
// topology before it reaches a server.
func (c *Cluster) loadShardNode(sh *clusterShard, numShards int, epoch uint64) (*Pipeline, ShardIdentity, error) {
	pipe, id, err := LoadShardEngine(sh.snapPath)
	if err != nil {
		return nil, ShardIdentity{}, err
	}
	if id.ShardID != sh.id || !c.lineage[id.NumShards] || id.RingEpoch > epoch {
		return nil, ShardIdentity{}, fmt.Errorf("snapshot %s identifies as shard %d/%d epoch %d, want %d/%d epoch ≤ %d",
			sh.snapPath, id.ShardID, id.NumShards, id.RingEpoch, sh.id, numShards, epoch)
	}
	id.NumShards, id.RingEpoch = numShards, epoch
	return pipe, id, nil
}

// newShard lays shard i out — snapshot path, one node per replica plus the
// primary, each with its own write-ahead log and a bound loopback listener
// (so the ring carries final addresses before anything boots).
func (c *Cluster) newShard(i int) (*clusterShard, error) {
	sh := &clusterShard{id: i, snapPath: filepath.Join(c.cfg.dir, fmt.Sprintf("shard-%03d.snap", i))}
	for r := 0; r <= c.cfg.replicas; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, n := range sh.nodes {
				n.ln.Close()
			}
			return nil, fmt.Errorf("ganc: shard %d listener: %w", i, err)
		}
		wal := fmt.Sprintf("shard-%03d-replica-%d.wal", i, r)
		if r == c.cfg.replicas {
			wal = fmt.Sprintf("shard-%03d.wal", i)
		}
		sh.nodes = append(sh.nodes, &clusterNode{addr: ln.Addr().String(), walPath: filepath.Join(c.cfg.dir, wal), ln: ln})
	}
	return sh, nil
}

// bootNodes boots every node of a laid-out shard on its bound listener, each
// restored from the shard snapshot into numShards at epoch, the primary last
// (its shipper's first heartbeat must find the replicas listening). A failure
// leaves the remaining listeners to the teardown that follows it (killNode).
func (c *Cluster) bootNodes(sh *clusterShard, numShards int, epoch uint64) error {
	info := sh.bootInfo()
	for _, n := range sh.nodes {
		pipe, id, err := c.loadShardNode(sh, numShards, epoch)
		if err != nil {
			return err
		}
		ln := n.ln
		n.ln = nil
		if _, err := c.startNode(sh, n, ln, pipe, id, info, false); err != nil {
			return err
		}
	}
	return nil
}

// startNode starts a loaded shard pipeline serving on the listener in the
// role the shard's ring entry gives it — the same ShardNode either way, the
// primary shipping to the entry's replicas. recoverLog replays the node's
// write-ahead-log suffix past the pipeline's cursor first (restart and
// rejoin; a fresh boot has none). Every node, primary or replica, gets the
// same serving options and its own metrics registry.
func (c *Cluster) startNode(sh *clusterShard, n *clusterNode, ln net.Listener, pipe *Pipeline, id ShardIdentity, info ShardInfo, recoverLog bool) (replayed int, err error) {
	var opts []ServerOption
	if c.cfg.cacheCap > 0 {
		opts = append(opts, WithServerCacheCapacity(c.cfg.cacheCap))
	}
	if c.cfg.metrics != nil {
		opts = append(opts, serve.WithMetrics(obs.NewRegistry()))
	}
	node, err := OpenShardNode(pipe, id, n.walPath, sh.snapPath, c.cfg.checkpointEvery, opts...)
	if err == nil && recoverLog {
		replayed, err = node.Recover()
	}
	if err == nil && n.addr == info.Addr {
		err = node.MakePrimary(info.Replicas)
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

// primary returns the node the router's ring names sh's primary (nil for a
// shard the ring no longer has). Callers hold c.mu.
func (c *Cluster) primary(sh *clusterShard) *clusterNode {
	ring := c.router.Ring()
	if sh.id >= ring.NumShards() {
		return nil
	}
	return sh.node(ring.Shard(sh.id).Addr)
}

// Handler returns the router's HTTP surface, for mounting on a listener or
// an existing mux. Its POST /admin/reshard drives the router alone, over
// nodes someone else runs: a shrink through it leaves the retired shards'
// nodes running until Close, and a grow must name nodes already serving, so
// Reshard is how a Cluster grows.
func (c *Cluster) Handler() http.Handler { return c.router.Handler() }

// Ring returns the cluster's hash ring.
func (c *Cluster) Ring() *Ring { return c.router.Ring() }

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return c.Ring().NumShards() }

// OwnerShard returns the shard index owning an external user key.
func (c *Cluster) OwnerShard(userKey string) int { return c.router.Owner(userKey) }

// ShardAddr returns the listen address of shard i's primary, or "" when the
// ring has no shard i.
func (c *Cluster) ShardAddr(i int) string {
	ring := c.Ring()
	if i < 0 || i >= ring.NumShards() {
		return ""
	}
	return ring.Shard(i).Addr
}

// shardByIndex validates a shard index and returns the shard and the node
// the ring names its primary. Callers hold c.mu.
func (c *Cluster) shardByIndex(i int) (*clusterShard, *clusterNode, error) {
	if n := min(len(c.shards), c.NumShards()); i < 0 || i >= n {
		return nil, nil, fmt.Errorf("ganc: shard %d out of range [0,%d)", i, n)
	}
	return c.shards[i], c.primary(c.shards[i]), nil
}

// primaryNode returns shard i's running primary, read under c.mu (nil when
// it is dead), or an error when shard i does not exist.
func (c *Cluster) primaryNode(i int) (*ShardNode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, p, err := c.shardByIndex(i)
	if err != nil {
		return nil, err
	}
	return p.node, nil
}

// KillShard crashes shard i's primary: its listener and connections close,
// in-memory state drops, the write-ahead-log handle is released. Durable
// files (the shard snapshot and WAL) survive for RestartShard; replicas keep
// serving, so reads fail over while writes get the router's typed 503 until
// a restart or a promotion.
func (c *Cluster) KillShard(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, p, err := c.shardByIndex(i)
	if err != nil {
		return err
	}
	if !p.live() {
		return fmt.Errorf("ganc: shard %d is already dead", i)
	}
	return killNode(p)
}

// killNode crashes one node, whatever its role (a no-op on a dead one): the
// listener and connections close, the shipper stops, the write-ahead-log
// handle is released. Callers hold c.mu where it matters.
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
		for _, n := range sh.nodes {
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
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, p, err := c.shardByIndex(i)
	if err != nil {
		return 0, err
	}
	if p.live() {
		return 0, fmt.Errorf("ganc: shard %d is still running (kill it first)", i)
	}
	return c.rebootNode(sh, p, c.Ring())
}

// Promote turns shard i's freshest live replica into its primary after a
// kill (Router.Promote) and returns the new ring epoch. The dead old primary
// stays in the replica set, so a later RejoinAsReplica needs no ring change.
func (c *Cluster) Promote(i int) (uint64, error) { return c.router.Promote(i) }

// rebootNode brings a dead node back on its original address (free to
// rebind, and the ring's address for the node must not change) in the role
// ring gives it, and replays its write-ahead-log suffix past the snapshot
// cursor. The snapshot is loaded once: a replica's log is repaired
// (cluster.RepairLog) from ring's primary to the cursor of the pipeline that
// then boots, because the live primary keeps checkpointing into the shared
// file and a second read could return a later cursor than the log was
// repaired to — the fork ErrReplicaRejoin refuses.
func (c *Cluster) rebootNode(sh *clusterShard, n *clusterNode, ring *Ring) (replayed int, err error) {
	info := ring.Shard(sh.id)
	pipe, id, err := c.loadShardNode(sh, ring.NumShards(), ring.Epoch())
	if err == nil && n.addr != info.Addr {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = cluster.RepairLog(ctx, nil, n.walPath, info.Addr, sh.id, pipe.ingestSeq)
		cancel()
	}
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return 0, fmt.Errorf("ganc: rebinding shard %d node on %s: %w", sh.id, n.addr, err)
	}
	return c.startNode(sh, n, ln, pipe, id, info, true)
}

// RejoinAsReplica boots shard i's first dead replica — after a promotion,
// the demoted old primary — back as a replica: restored from the shard
// snapshot, its own write-ahead-log suffix replayed, and re-announced to the
// primary's shipper, which catches it up to the committed head. When the
// node's local log is shorter than the snapshot cursor (the disk did not
// survive with the full history), the missing tail is pulled from the live
// primary over POST /replicate/tail before boot (cluster.RepairLog).
// Returns how many events the local replay recovered.
func (c *Cluster) RejoinAsReplica(i int) (replayed int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, p, err := c.shardByIndex(i)
	if err != nil {
		return 0, err
	}
	if !p.live() {
		return 0, fmt.Errorf("ganc: shard %d has no live primary to rejoin under", i)
	}
	ring := c.Ring()
	k := slices.IndexFunc(ring.Shard(i).Replicas, func(addr string) bool { return !sh.node(addr).live() })
	if k < 0 {
		return 0, fmt.Errorf("ganc: shard %d has no dead replica to rejoin", i)
	}
	if replayed, err = c.rebootNode(sh, sh.node(ring.Shard(i).Replicas[k]), ring); err != nil {
		return replayed, err
	}
	// Tell the primary's shipper where the rejoined node actually is; its
	// catch-up loop re-feeds the rest from the primary's WAL.
	if sp := p.node.shipper.Load(); sp != nil {
		sp.Resync()
	}
	return replayed, nil
}

// Reshard grows or shrinks the cluster to target shards with zero
// client-visible downtime. Added shards boot from the pristine baseline
// snapshot (full trained state, no stream history) at the current epoch E;
// the router then runs the staged cutover to the E+1 ring (Router.Reshard).
// Shrinking retires the highest-numbered shards after a short drain grace;
// their files stay on disk (a later grow wipes and re-migrates them).
//
// Reshard requires every current primary to be live (each is a migration
// source) and serializes with kills, restarts and rejoins. On an error before
// the commit the transition is aborted: routing stays on the old ring and
// added shards are torn down. A cluster whose ring was resharded through the
// router's POST /admin/reshard runs other nodes than its ring names and is
// refused.
func (c *Cluster) Reshard(target int) (*ReshardStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ring := c.Ring()
	oldN := len(c.shards)
	switch {
	case ring.NumShards() != oldN:
		return nil, fmt.Errorf("ganc: the ring has %d shards and the cluster runs %d: it was resharded through the router", ring.NumShards(), oldN)
	case target <= 0:
		return nil, fmt.Errorf("ganc: reshard needs a positive shard count, got %d", target)
	case target == oldN:
		return nil, fmt.Errorf("ganc: cluster already has %d shards", oldN)
	}
	for _, sh := range c.shards {
		if !c.primary(sh).live() {
			return nil, fmt.Errorf("ganc: shard %d is dead; restart or promote it before resharding", sh.id)
		}
	}

	// loadShardNode accepts checkpoints of the target count from here on.
	lineageAdded := !c.lineage[target]
	c.lineage[target] = true
	// fail reverts everything a reshard did before the commit: added shards
	// are torn down and the target leaves the lineage again.
	fail := func(err error) (*ReshardStats, error) {
		_ = killShards(c.shards[oldN:])
		c.shards = c.shards[:oldN]
		if lineageAdded {
			delete(c.lineage, target)
		}
		return nil, err
	}

	infos := ring.Shards()[:min(oldN, target)]
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
				for _, n := range sh.nodes {
					_ = os.Remove(n.walPath)
				}
				if err = base.SaveShard(sh.snapPath, ShardIdentity{ShardID: i, NumShards: target, RingEpoch: ring.Epoch(), WriteQuorum: c.cfg.writeQuorum}); err == nil {
					err = c.bootNodes(sh, target, ring.Epoch())
				}
			}
			if err != nil {
				return fail(fmt.Errorf("ganc: adding shard %d: %w", i, err))
			}
			infos = append(infos, sh.bootInfo())
		}
	}

	next, err := cluster.NewRing(ring.Epoch()+1, 0, infos)
	if err != nil {
		return fail(err)
	}
	stats, err := c.router.Reshard(next)
	if stats == nil {
		return fail(err)
	}

	// Shrink: the retired shards took their last write at the cutover's
	// begin and their last read at their last user's flip; a short grace
	// lets in-flight requests drain. A push or teardown error is reported
	// alongside the stats: the reshard itself has already been published.
	if target < oldN {
		time.Sleep(200 * time.Millisecond)
		if kerr := killShards(c.shards[target:]); err == nil {
			err = kerr
		}
		c.shards = c.shards[:target]
	}
	return stats, err
}

// primaries snapshots every shard's running primary by shard index (nil for a
// dead one) under c.mu, so its callers neither race nor block a reshard.
func (c *Cluster) primaries() []*ShardNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]*ShardNode, len(c.shards))
	for i, sh := range c.shards {
		if p := c.primary(sh); p != nil {
			nodes[i] = p.node
		}
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
// shard or one the cluster does not have).
func (c *Cluster) ShardVersion(i int) int {
	if n, _ := c.primaryNode(i); n != nil {
		return n.srv.Version()
	}
	return 0
}

// Epoch returns the cluster's current ring epoch (bumped by every Promote —
// manual or detector-triggered — and every Reshard).
func (c *Cluster) Epoch() uint64 { return c.Ring().Epoch() }

// ReplicaAddr returns the listen address of shard i's replica r, in the
// ring's replica order (a promotion puts the demoted primary in the promoted
// replica's place), or "" when the ring has no such replica.
func (c *Cluster) ReplicaAddr(i, r int) string {
	ring := c.Ring()
	if i < 0 || i >= ring.NumShards() || r < 0 || r >= len(ring.Shard(i).Replicas) {
		return ""
	}
	return ring.Shard(i).Replicas[r]
}

// ReplicaLag returns shard i's widest replica lag in committed events (0
// with no live shipper, or for a shard the cluster does not have).
func (c *Cluster) ReplicaLag(i int) uint64 {
	if n, _ := c.primaryNode(i); n != nil {
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

// Close tears the cluster down: every shard is killed and the work directory
// is removed when the cluster owns it.
func (c *Cluster) Close() error {
	// The router closes first: its detector stops, and a promotion it started
	// finishes pushing to nodes that are still up.
	if c.router != nil {
		c.router.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	firstErr := killShards(c.shards)
	if c.ownsDir && c.cfg.dir != "" {
		if err := os.RemoveAll(c.cfg.dir); err != nil && firstErr == nil {
			firstErr = err
		}
		c.ownsDir = false
	}
	return firstErr
}

// WaitReady blocks until every shard's primary and every live replica
// answers /health (or the timeout expires) — a convenience for callers that
// start driving traffic immediately after NewCluster. It probes the node set
// as of the call.
func (c *Cluster) WaitReady(timeout time.Duration) error {
	c.mu.Lock()
	var addrs []string
	for _, sh := range c.shards {
		for _, n := range sh.nodes {
			if n.live() || n == c.primary(sh) {
				addrs = append(addrs, n.addr)
			}
		}
	}
	c.mu.Unlock()
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for _, addr := range addrs {
		for {
			resp, err := client.Get("http://" + addr + "/health")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("ganc: node %s not ready within %v", addr, timeout)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
