package ganc

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"ganc/internal/cluster"
	"ganc/internal/dataset"
	"ganc/internal/simulate"
)

// Cluster scenario binding: the multi-node counterpart of pipelineSystem. A
// clusterSystem drives the real NewCluster assembly — router, shard nodes,
// per-shard write-ahead logs and checkpoints, warm replicas — through the
// scenario runner's ClusterSystem interface, so cluster lifecycles (kill one
// shard mid-load, restart from snapshot + WAL, promote a replica, reshard,
// compare the drilled shard against a single-node shadow) are expressed as
// the same phase lists single-node scenarios use.

// Cluster scenario phase kinds, re-exported for scenario literals.
const (
	PhaseKillShard      = simulate.PhaseKillShard
	PhaseRestartShard   = simulate.PhaseRestartShard
	PhasePromoteReplica = simulate.PhasePromoteReplica
	PhaseRejoinReplica  = simulate.PhaseRejoinReplica
	PhaseAwaitPromotion = simulate.PhaseAwaitPromotion
	PhaseShardParity    = simulate.PhaseShardParity
)

// RunClusterScenario executes a scenario against a sharded primary with a
// single-node shadow: the cluster serves through its scatter-gather router,
// the shadow (in dir's "shadow" subdirectory) absorbs exactly the events
// routed to the scenario's drilled shard, and restart-shard, promote-replica
// and await-promotion phases assert the recovered shard's owned-user output
// is byte-identical to the shadow's. The cluster has `shards` shards with `replicas` warm replicas
// behind each (0 = unreplicated; > 0 enables the promotion and rejoin phases
// and the router's read failover during mid-load kills), keeps its durable
// files in dir and checkpoints every sc.CheckpointEvery ingested events per
// shard. Extra cluster options (WithWriteQuorum, WithAutoFailover,
// WithFailureDetection) are appended after the scenario's own. The cluster
// lives exactly as long as the run.
func RunClusterScenario(ctx context.Context, sc Scenario, dir string, cfg SimSystemConfig, shards, replicas int, extra ...ClusterOption) (*ScenarioResult, error) {
	primary := &clusterSystem{cfg: cfg.withDefaults(), shards: shards, replicas: replicas, dir: dir, checkpointEvery: sc.CheckpointEvery, extra: extra}
	defer func() {
		if primary.cluster != nil {
			_ = primary.cluster.Close() // teardown of a finished run: its result is already decided
		}
	}()
	r := &simulate.Runner{
		NewSystem: func() simulate.System { return primary },
		NewShadow: newShadowSystem(cfg.withDefaults(), dir),
	}
	return r.Run(ctx, sc)
}

// clusterSystem implements simulate.ClusterSystem over the facade Cluster.
type clusterSystem struct {
	cfg             SimSystemConfig
	shards          int
	replicas        int
	dir             string
	checkpointEvery int
	extra           []ClusterOption
	topN            int

	cluster *Cluster

	// ringMu guards rings, the OwnerAt cache of rings by shard count.
	ringMu sync.Mutex
	rings  map[int]*Ring
}

// Train implements simulate.System: build the pipeline, shard-split it and
// stand the whole cluster (shards + router) up. Every shard boots from its
// shard snapshot and runs its write-ahead log from boot.
func (s *clusterSystem) Train(train *dataset.Dataset, topN int) error {
	p, err := NewPipeline(train,
		WithBaseNamed(s.cfg.Base),
		WithPreferences(s.cfg.Theta),
		WithTopN(topN),
		WithWorkers(s.cfg.Workers),
		WithSeed(s.cfg.Seed))
	if err != nil {
		return err
	}
	s.topN = topN
	opts := []ClusterOption{
		WithShards(s.shards),
		WithClusterDir(s.dir),
		WithClusterCheckpointEvery(s.checkpointEvery),
		// Admission applies at the router — the surface scenarios drive — so
		// overload phases shed with the router's typed 429s.
		WithClusterAdmission(s.cfg.Admission),
	}
	if s.replicas > 0 {
		opts = append(opts, WithReplicas(s.replicas))
	}
	if s.cfg.CacheCapacity > 0 {
		opts = append(opts, WithShardCacheCapacity(s.cfg.CacheCapacity))
	}
	if s.cfg.Metrics {
		opts = append(opts, WithClusterMetrics(NewMetricsRegistry()))
	}
	opts = append(opts, s.extra...)
	c, err := NewCluster(p, opts...)
	if err != nil {
		return err
	}
	s.cluster = c
	return nil
}

// Handler implements simulate.System: the router's scatter-gather surface.
func (s *clusterSystem) Handler() (http.Handler, error) {
	if s.cluster == nil {
		return nil, fmt.Errorf("ganc: cluster scenario system is not serving (killed or untrained)")
	}
	return s.cluster.Handler(), nil
}

// Checkpoint implements simulate.System: every live primary checkpoints into
// its shard snapshot.
func (s *clusterSystem) Checkpoint() error {
	if s.cluster == nil {
		return fmt.Errorf("ganc: cluster scenario system has nothing to checkpoint")
	}
	return s.cluster.SaveShards()
}

// Ingest implements simulate.System: apply a batch directly, partitioned by
// the ring exactly as the router would partition it.
func (s *clusterSystem) Ingest(ctx context.Context, events []IngestEvent) error {
	if s.cluster == nil {
		return fmt.Errorf("ganc: cluster scenario system is not ingesting")
	}
	perShard := make(map[int][]IngestEvent)
	for _, ev := range events {
		owner := s.cluster.OwnerShard(ev.User)
		perShard[owner] = append(perShard[owner], ev)
	}
	for shard, evs := range perShard {
		n, err := s.cluster.primaryNode(shard)
		if err != nil {
			return err
		}
		if n == nil {
			return fmt.Errorf("ganc: shard %d is not ingesting (killed?)", shard)
		}
		if _, err := n.ing.Apply(ctx, evs); err != nil {
			return err
		}
	}
	return nil
}

// Kill implements simulate.System: crash every shard's primary. Durable files
// survive for Restart; the cluster's listeners' addresses stay reserved for
// restarts.
func (s *clusterSystem) Kill() error {
	if s.cluster == nil {
		return nil
	}
	var firstErr error
	for i := 0; i < s.cluster.NumShards(); i++ {
		if s.cluster.ShardVersion(i) == 0 {
			continue
		}
		if err := s.cluster.KillShard(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Restart implements simulate.System: the whole-cluster restart. Every
// running primary is killed, then every shard boots from its snapshot and
// replays its write-ahead-log suffix; the replayed counts add up.
func (s *clusterSystem) Restart() (int, error) {
	if s.cluster == nil {
		return 0, fmt.Errorf("ganc: cluster scenario system was never trained")
	}
	if err := s.Kill(); err != nil {
		return 0, err
	}
	total := 0
	for i := 0; i < s.cluster.NumShards(); i++ {
		n, err := s.cluster.RestartShard(i)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Fingerprint implements simulate.System: the union of every shard's
// owned-user fingerprint — each user appears exactly once, under its owning
// shard's state.
func (s *clusterSystem) Fingerprint(ctx context.Context) ([]byte, error) {
	if s.cluster == nil {
		return nil, fmt.Errorf("ganc: cannot fingerprint an untrained cluster system")
	}
	var lines []string
	for i := 0; i < s.cluster.NumShards(); i++ {
		fp, err := s.ShardFingerprint(ctx, i)
		if err != nil {
			return nil, err
		}
		if len(fp) > 0 {
			lines = append(lines, strings.Split(string(fp), "\n")...)
		}
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n")), nil
}

// NumShards implements simulate.ClusterSystem.
func (s *clusterSystem) NumShards() int {
	if s.cluster == nil {
		return s.shards
	}
	return s.cluster.NumShards()
}

// ShardOwner implements simulate.ClusterSystem.
func (s *clusterSystem) ShardOwner(userKey string) int { return s.cluster.OwnerShard(userKey) }

// KillShard implements simulate.ClusterSystem.
func (s *clusterSystem) KillShard(shard int) error { return s.cluster.KillShard(shard) }

// RestartShard implements simulate.ClusterSystem.
func (s *clusterSystem) RestartShard(shard int) (int, error) { return s.cluster.RestartShard(shard) }

// NumReplicas implements simulate.ClusterSystem.
func (s *clusterSystem) NumReplicas() int { return s.replicas }

// PromoteReplica implements simulate.ClusterSystem: promote the freshest
// live replica of the (killed) shard to primary under a bumped ring epoch.
func (s *clusterSystem) PromoteReplica(shard int) (uint64, error) {
	if s.cluster == nil {
		return 0, fmt.Errorf("ganc: cannot promote in an untrained cluster system")
	}
	return s.cluster.Promote(shard)
}

// RejoinAsReplica implements simulate.ClusterSystem: boot the shard's
// dead ex-primary as a replica of the promoted primary.
func (s *clusterSystem) RejoinAsReplica(shard int) (int, error) {
	if s.cluster == nil {
		return 0, fmt.Errorf("ganc: cannot rejoin in an untrained cluster system")
	}
	return s.cluster.RejoinAsReplica(shard)
}

// Epoch implements simulate.ClusterSystem: the cluster's current ring epoch,
// so await-promotion phases can observe a detector-triggered promotion.
func (s *clusterSystem) Epoch() uint64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.Epoch()
}

// ReplicaLag implements simulate.ClusterSystem.
func (s *clusterSystem) ReplicaLag(shard int) uint64 {
	if s.cluster == nil {
		return 0
	}
	return s.cluster.ReplicaLag(shard)
}

// Reshard implements simulate.ClusterSystem: grow or shrink the live
// cluster to target shards with a staged migration and cutover.
func (s *clusterSystem) Reshard(target int) (*ReshardStats, error) {
	if s.cluster == nil {
		return nil, fmt.Errorf("ganc: cannot reshard an untrained cluster system")
	}
	return s.cluster.Reshard(target)
}

// OwnerAt implements simulate.ClusterSystem: the shard that owns userKey in
// a ring of the given shard count. Ownership is a pure function of the
// shard-ID set — neither the epoch nor the addresses are hashed — so the
// uniform ring over IDs 0..shards-1 answers for any topology, past or future
// (the ring-delta unit tests in internal/cluster pin this property).
func (s *clusterSystem) OwnerAt(userKey string, shards int) int {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	r, ok := s.rings[shards]
	if !ok {
		var err error
		if r, err = cluster.NewUniformRing(1, shards); err != nil {
			return -1
		}
		if s.rings == nil {
			s.rings = make(map[int]*Ring)
		}
		s.rings[shards] = r
	}
	return r.Owner(userKey)
}

// ShardFingerprint implements simulate.ClusterSystem: the shard's current
// state swept on a throwaway clone, restricted to the users the ring
// assigns to it. The sweep deliberately covers the whole universe even
// though only the owned users' lines survive: the OSLG batch sweep evolves
// Dyn coverage state across users in order, so a subset sweep would produce
// different lists than the single-node shadow's full sweep — the filter
// must come after the sweep for the byte-identical parity contract to hold.
func (s *clusterSystem) ShardFingerprint(ctx context.Context, shard int) ([]byte, error) {
	n, err := s.cluster.primaryNode(shard)
	if err != nil {
		return nil, err
	}
	if n == nil {
		return nil, fmt.Errorf("ganc: cannot fingerprint dead shard %d", shard)
	}
	return fingerprintPipeline(ctx, n.pipe, n.ing, func(userKey string) bool {
		return s.cluster.OwnerShard(userKey) == shard
	})
}
