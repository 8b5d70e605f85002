package simulate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/cluster"
	"ganc/internal/dataset"
	"ganc/internal/obs"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// System is the recommendation stack a scenario drives: trainable,
// persistable, servable, ingestible, killable. The facade binds it to the
// real Pipeline/Server/Ingestor assembly; tests can substitute fakes. A
// scenario may run two instances side by side (a primary and an uninterrupted
// shadow) and compare their Fingerprints for equivalence.
type System interface {
	// Train builds the serving engine from the train set and stands the
	// serving layer up.
	Train(train *dataset.Dataset, topN int) error
	// Handler exposes the current HTTP serving surface.
	Handler() (http.Handler, error)
	// Save writes a warm-start snapshot of the current state to path.
	Save(path string) error
	// Load replaces the running system with one restored from the snapshot at
	// path (the process-restart half of a crash).
	Load(path string) error
	// EnableIngest attaches streaming ingestion. Empty paths select a pure
	// in-memory ingestor (no WAL, no checkpoints); checkpointEvery ≤ 0
	// disables periodic snapshots.
	EnableIngest(logPath, checkpointPath string, checkpointEvery int) error
	// Ingest applies one event batch directly (the shadow system's path; the
	// primary ingests over HTTP so the full endpoint stack is exercised).
	Ingest(ctx context.Context, events []serve.IngestEvent) error
	// Recover re-attaches ingestion after Load and replays the write-ahead
	// log suffix past the restored checkpoint cursor.
	Recover() (replayed int, err error)
	// Kill drops every in-memory structure and releases file handles,
	// simulating a crash; durable files survive for Load/Recover.
	Kill() error
	// Fingerprint returns a canonical byte serialization of the system's full
	// batch output in external identifiers. It must not disturb serving state
	// (implementations sweep a throwaway clone), so scenarios can fingerprint
	// mid-lifecycle.
	Fingerprint(ctx context.Context) ([]byte, error)
}

// ClusterSystem is a System that is a sharded cluster: its shards can be
// killed, restarted, promoted from warm replicas and resharded one at a
// time. The facade binds it to the real router/shard-node assembly; every
// phase that names a shard, promotes, rejoins or reshards requires the
// primary to implement it, and the replica phases additionally require
// NumReplicas > 0.
type ClusterSystem interface {
	System
	// NumShards returns the cluster's current shard count.
	NumShards() int
	// ShardOwner returns the shard index owning an external user key in the
	// current ring.
	ShardOwner(userKey string) int
	// OwnerAt returns the shard that would own userKey in a ring of the given
	// shard count. Ownership is a pure function of the shard-ID set, so the
	// post-reshard assignment is computable before the reshard runs — the
	// runner uses it to feed the shadow the drilled shard's final-topology
	// event slice from the scenario's first phase on.
	OwnerAt(userKey string, shards int) int
	// KillShard crashes one shard's primary: requests routed to it fail (or
	// fail over to a replica), durable files survive.
	KillShard(shard int) error
	// RestartShard restores a killed shard from its snapshot and replays its
	// write-ahead-log suffix, returning the replayed event count.
	RestartShard(shard int) (replayed int, err error)
	// ShardFingerprint returns the canonical serialization of one shard's
	// output restricted to the users it owns. Like Fingerprint, it must not
	// disturb serving state.
	ShardFingerprint(ctx context.Context, shard int) ([]byte, error)
	// NumReplicas returns the per-shard replica count (0 = unreplicated).
	NumReplicas() int
	// PromoteReplica promotes the freshest live replica of a killed shard to
	// primary and returns the new ring epoch.
	PromoteReplica(shard int) (epoch uint64, err error)
	// RejoinAsReplica boots the shard's dead ex-primary as a replica of the
	// promoted primary, returning how many write-ahead-log events its local
	// replay restored before replication catch-up took over.
	RejoinAsReplica(shard int) (replayed int, err error)
	// ReplicaLag returns the shard's widest replica lag in committed events
	// (0 when the shard has no live primary-side shipper).
	ReplicaLag(shard int) uint64
	// Epoch returns the current ring epoch. An await-promotion phase observes
	// a detector-triggered promotion as a bump of it.
	Epoch() uint64
	// Reshard grows or shrinks the cluster to target shards with a live
	// migration and a staged cutover, returning the migration stats.
	Reshard(target int) (*cluster.ReshardStats, error)
}

// Fixed bounds of the drills. Each is generous relative to what a passing
// run needs, so a loaded CI machine does not flake a drill, while still
// catching the failure it exists for.
const (
	// overloadMaxP99Ms bounds the served-request p99 an overload phase
	// tolerates: "bounded, not collapsing" — a server that stops answering
	// admitted requests under overload still fails.
	overloadMaxP99Ms = 2000
	// promotionWindow bounds how long an await-promotion phase waits for the
	// failure detector to promote the killed shard's replica; the point of
	// the bound is that promotion happens at all without an operator.
	promotionWindow = 10 * time.Second
	// defaultMidLoadDelayMs is how far into a load a mid-load kill or
	// reshard fires when the phase does not say.
	defaultMidLoadDelayMs = 100
)

// PhaseKind names a lifecycle phase.
type PhaseKind string

// The scenario phase vocabulary.
const (
	// PhaseTrain generates nothing itself: it trains the system on the
	// universe's dataset and stands serving up. Must come first.
	PhaseTrain PhaseKind = "train"
	// PhaseSave snapshots the system to the scenario's snapshot path.
	PhaseSave PhaseKind = "save"
	// PhaseLoad restores the snapshot into the primary and asserts warm-start
	// parity: the fingerprint before and after the reload must be identical.
	PhaseLoad PhaseKind = "load"
	// PhaseServeUnderLoad runs the closed-loop driver against the primary.
	PhaseServeUnderLoad PhaseKind = "serve-under-load"
	// PhaseIngestChurn streams event batches through POST /ingest while
	// concurrent readers hammer /recommend and /recommend/batch.
	PhaseIngestChurn PhaseKind = "ingest-churn"
	// PhaseKillAndRecover crashes the primary, restores it from the last
	// checkpoint plus the write-ahead-log suffix, and asserts its fingerprint
	// matches the uninterrupted shadow system byte for byte.
	PhaseKillAndRecover PhaseKind = "kill-and-recover"
	// PhaseKillShard crashes one shard of a sharded primary (Phase.Shard);
	// the rest of the cluster keeps serving.
	PhaseKillShard PhaseKind = "kill-shard"
	// PhaseOverload offers load well beyond the primary's admission capacity
	// and asserts graceful degradation instead of collapse: shed requests get
	// typed 429 bodies, served requests keep a bounded p99, and nothing
	// answers 5xx. The primary must be built with admission control enabled —
	// a system that cannot shed fails the phase (zero 429s means the
	// assertion is vacuous).
	PhaseOverload PhaseKind = "overload"
	// PhaseRestartShard restores a killed shard from its snapshot plus its
	// write-ahead-log suffix and asserts the recovered shard's owned-user
	// fingerprint matches the single-node shadow byte for byte (the shadow is
	// fed exactly the events the router delivered to that shard, so an
	// uninterrupted single node is the ground truth for what the shard must
	// look like after recovery).
	PhaseRestartShard PhaseKind = "restart-shard"
	// PhasePromoteReplica promotes the freshest live replica of a killed
	// shard (Phase.Shard) to primary and asserts the same owned-user parity
	// contract as restart-shard against the promoted runtime. The check is
	// deliberately address-agnostic: ownership is keyed by shard ID, so the
	// promoted replica's different listen address and the bumped ring epoch
	// must not perturb the fingerprint.
	PhasePromoteReplica PhaseKind = "promote-replica"
	// PhaseRejoinReplica boots the shard's dead ex-primary as a replica of
	// the promoted primary and waits for its replication lag to drain to
	// zero, proving the demoted node converges on the new history.
	PhaseRejoinReplica PhaseKind = "rejoin-replica"
	// PhaseAwaitPromotion is the hands-off form of promote-replica: the
	// runner never calls PromoteReplica — it waits a fixed window for the
	// system's own failure detector to suspect the killed primary and promote
	// its freshest replica (observed as a ring-epoch bump), then asserts the
	// same owned-user parity contract against the shadow. The primary must
	// run with automatic failover enabled.
	PhaseAwaitPromotion PhaseKind = "await-promotion"
	// PhaseShardParity asserts the drilled shard's owned-user fingerprint is
	// byte-identical to the uninterrupted single-node shadow restricted to
	// the same users — the standalone form of the check restart-shard and
	// promote-replica run implicitly, used after a mid-load reshard to prove
	// the migrated shard converged on the ground truth.
	PhaseShardParity PhaseKind = "shard-parity"
)

// Phase is one step of a scenario. Zero-valued knobs select the defaults
// documented per field.
type Phase struct {
	// Kind selects the behavior.
	Kind PhaseKind `json:"kind"`
	// Requests is the serve-under-load request count (default 200; 400 for
	// overload).
	Requests int `json:"requests,omitempty"`
	// Concurrency is the worker count for serve-under-load (default 4) and
	// overload (default 16), and the reader count for ingest-churn (default
	// 4).
	Concurrency int `json:"concurrency,omitempty"`
	// Mix composes serve-under-load traffic (default 90% single lookups, 10%
	// batches) and overload traffic (default all single lookups). A mix with
	// ingest weight makes the runner enable ingestion at train. In a
	// scenario that runs a shadow, serve-under-load forces the ingest weight
	// to 0: the shadow cannot observe the driver's internally generated
	// events, so they would void the parity checks — stream events through
	// ingest-churn phases instead.
	Mix LoadMix `json:"mix,omitempty"`
	// BatchSize is the users per batch request (default 20, from the load
	// driver's own default).
	BatchSize int `json:"batch_size,omitempty"`
	// Events is the ingest-churn event count (default 200).
	Events int `json:"events,omitempty"`
	// EventBatch is the events per /ingest POST (default 25).
	EventBatch int `json:"event_batch,omitempty"`
	// Shard names the target of the shard phases (kill, restart, promote,
	// rejoin, await-promotion, shard-parity) and the shard a mid-load
	// reshard's shadow mirrors.
	Shard int `json:"shard,omitempty"`
	// KillShardMid, on a serve-under-load phase against a cluster primary,
	// kills that shard MidLoadDelayMs into the load (the mid-load outage
	// drill). Without replicas (or with writes in the mix) requests hitting
	// the dead shard fail with the router's typed 503, so the phase
	// tolerates server-side errors instead of failing on them; a later
	// restart-shard + serve-under-load pair asserts the cluster is
	// error-free again.
	KillShardMid *int `json:"kill_shard_mid,omitempty"`
	// ReshardMid, on a serve-under-load phase against a cluster primary,
	// grows or shrinks the cluster to this shard count MidLoadDelayMs into
	// the load (the reshard-mid-load drill). The cutover must be invisible:
	// any client-visible error fails the phase. Phase.Shard names the shard
	// whose post-reshard state the shadow mirrors for a later shard-parity
	// phase. Mutually exclusive with KillShardMid.
	ReshardMid *int `json:"reshard_mid,omitempty"`
	// MidLoadDelayMs is how far into the load a KillShardMid or ReshardMid
	// event fires (default 100).
	MidLoadDelayMs int `json:"mid_load_delay_ms,omitempty"`
	// MaxReplicaLagEvents, on a serve-under-load phase against a replicated
	// primary, asserts that every live shard's widest replica lag drains to
	// at most this many committed events shortly after the load completes
	// (nil = no assertion; the shard killed by KillShardMid is exempt — its
	// shipper died with its primary).
	MaxReplicaLagEvents *uint64 `json:"max_replica_lag_events,omitempty"`
}

// Scenario is a full lifecycle expressed as data: a universe, a system
// configuration hint (TopN, checkpoint cadence) and an ordered phase list.
type Scenario struct {
	// Name labels the run in results and errors.
	Name string `json:"name"`
	// Universe describes the synthetic population.
	Universe UniverseConfig `json:"universe"`
	// TopN is the serving list size (default 10).
	TopN int `json:"top_n"`
	// CheckpointEvery is the ingestion checkpoint cadence in events (0 =
	// only explicit PhaseSave snapshots).
	CheckpointEvery int `json:"checkpoint_every"`
	// Seed drives the scenario's event and request streams (the universe has
	// its own seed).
	Seed int64 `json:"seed"`
	// Stream shapes the scenario's event stream (new-user/new-item rates;
	// the zero value selects the stream defaults, negative rates close the
	// universe). Reshard parity scenarios close the universe: a migrated
	// shard applies its users' histories in per-user order, which is
	// byte-equivalent to the shadow's global order only when no event can
	// extend the interner tables. The Seed field inside is ignored —
	// Scenario.Seed drives the stream.
	Stream EventStreamConfig `json:"stream,omitempty"`
	// Phases run in order. The first must be PhaseTrain.
	Phases []Phase `json:"phases"`
}

// has reports whether the scenario contains a phase of any of the given
// kinds.
func (sc *Scenario) has(kinds ...PhaseKind) bool {
	for _, p := range sc.Phases {
		if slices.Contains(kinds, p.Kind) {
			return true
		}
	}
	return false
}

// shardUnderTest returns the shard targeted by the scenario's kill/restart
// choreography (-1 when there is none), erroring when phases disagree: the
// shadow can mirror only one shard's event feed, so one scenario may drill
// one shard.
func (sc *Scenario) shardUnderTest() (int, error) {
	shard := -1
	for _, p := range sc.Phases {
		var s int
		switch {
		case p.Kind == PhaseServeUnderLoad && p.KillShardMid != nil:
			s = *p.KillShardMid
		case p.Kind == PhaseServeUnderLoad && p.ReshardMid != nil,
			slices.Contains([]PhaseKind{PhaseKillShard, PhaseRestartShard, PhasePromoteReplica,
				PhaseRejoinReplica, PhaseAwaitPromotion, PhaseShardParity}, p.Kind):
			s = p.Shard
		default:
			continue
		}
		if shard >= 0 && shard != s {
			return -1, fmt.Errorf("simulate: scenario %q drills both shard %d and shard %d; one scenario may target one shard", sc.Name, shard, s)
		}
		shard = s
	}
	return shard, nil
}

// shardParityPhases are the phases that assert the drilled shard's parity
// against the shadow.
var shardParityPhases = []PhaseKind{PhaseRestartShard, PhasePromoteReplica, PhaseAwaitPromotion, PhaseShardParity}

// finalShards returns the shard count the drilled shard's parity is last
// asserted in: the mid-load reshard target in effect at the scenario's last
// parity-asserting phase (0 = the boot topology), or — when nothing asserts
// parity — the last reshard target. A reshard after the last parity check (a
// closing shrink that retires the drilled shard) no longer changes what the
// shadow must hold.
func (sc *Scenario) finalShards() int {
	final, cur, asserted := 0, 0, false
	for _, p := range sc.Phases {
		switch {
		case p.Kind == PhaseServeUnderLoad && p.ReshardMid != nil:
			cur = *p.ReshardMid
		case slices.Contains(shardParityPhases, p.Kind):
			final, asserted = cur, true
		}
	}
	if !asserted {
		return cur
	}
	return final
}

// PhaseResult records one executed phase.
type PhaseResult struct {
	// Kind echoes the phase.
	Kind PhaseKind `json:"kind"`
	// Load carries the driver measurement of a serve-under-load phase.
	Load *LoadResult `json:"load,omitempty"`
	// EventsApplied counts ingest-churn events accepted by the server.
	EventsApplied int `json:"events_applied,omitempty"`
	// ReaderRequests and ReaderErrors count the concurrent read traffic of an
	// ingest-churn phase.
	ReaderRequests int64 `json:"reader_requests,omitempty"`
	ReaderErrors   int64 `json:"reader_errors,omitempty"`
	// Replayed is the write-ahead-log suffix length a kill-and-recover or
	// restart-shard phase replayed.
	Replayed int `json:"replayed,omitempty"`
	// ParityChecked marks phases that asserted a fingerprint equivalence.
	ParityChecked bool `json:"parity_checked,omitempty"`
	// MetricsValidated marks phases that scraped GET /metrics mid-phase and
	// validated the body with the strict text-format parser.
	MetricsValidated bool `json:"metrics_validated,omitempty"`
	// Shard echoes the target of a kill-shard/restart-shard phase (and of a
	// mid-load kill).
	Shard int `json:"shard,omitempty"`
	// Epoch is the ring epoch a promote-replica, await-promotion or mid-load
	// reshard phase left the ring at.
	Epoch uint64 `json:"epoch,omitempty"`
	// PromotionMs is an await-promotion phase's detection-plus-promotion time:
	// from the instant the shard was killed to the first observation of the
	// bumped ring epoch, sampled while the load still runs.
	PromotionMs float64 `json:"promotion_ms,omitempty"`
	// ReplicaLagEvents is the widest replica lag observed when a phase
	// asserted a lag bound (serve-under-load's MaxReplicaLagEvents, or the
	// rejoin-replica convergence wait).
	ReplicaLagEvents uint64 `json:"replica_lag_events,omitempty"`
	// Reshard carries the migration stats of a mid-load reshard.
	Reshard *cluster.ReshardStats `json:"reshard,omitempty"`
}

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario echoes the scenario name.
	Scenario string `json:"scenario"`
	// Phases records each executed phase in order.
	Phases []PhaseResult `json:"phases"`
}

// Runner executes scenarios. NewSystem builds a fresh system instance; Dir is
// the working directory for snapshots and write-ahead logs (a test's TempDir).
type Runner struct {
	// NewSystem constructs one system under test. It is called once for the
	// primary and once more for the shadow when the scenario asserts parity
	// against one (unless NewShadow overrides the shadow's construction).
	NewSystem func() System
	// NewShadow, when set, constructs the shadow reference system instead of
	// NewSystem. Cluster scenarios use it to compare a sharded primary
	// against a single-node shadow.
	NewShadow func() System
	// Dir holds the scenario's durable files (snapshot, WAL).
	Dir string
}

// runState carries one run's live pieces between phase executions.
type runState struct {
	universe *Universe
	primary  System
	// cluster is the primary's cluster view (nil for single-node runs).
	cluster  ClusterSystem
	shadow   System // nil unless the scenario asserts parity against one
	events   *EventStream
	snapPath string
	walPath  string
	// shadowShard is the shard whose routed events feed the shadow (-1 when
	// the shadow absorbs everything, the single-node semantics); finalShards
	// is the topology the drilled shard's parity is last asserted in (0 = the
	// boot topology), which decides the ownership the shadow's event slice is
	// filtered by.
	shadowShard int
	finalShards int
	// baseEpoch is the highest ring epoch the runner has accounted for — the
	// train-time epoch, advanced by every phase that records an epoch bump
	// (promote-replica, mid-load reshard, await-promotion). An
	// await-promotion phase succeeds when the live epoch exceeds it: an
	// unaccounted bump can only be the detector's own promotion.
	baseEpoch uint64
	// watchEpochs is set in scenarios with an await-promotion phase: every
	// shard kill then starts an epoch watcher, promoted carries the
	// observation of the latest one (nil before any kill), and watchers lets
	// Run wait for those goroutines to exit.
	watchEpochs bool
	promoted    <-chan promotion
	watchers    sync.WaitGroup
}

// promotion is what an epoch watcher saw: the bumped ring epoch and how long
// after the kill it first showed.
type promotion struct {
	epoch uint64
	after time.Duration
}

// Run executes the scenario and returns its per-phase record. Any phase
// failure — including a broken parity or equivalence assertion — aborts the
// run with an error naming the scenario and phase.
func (r *Runner) Run(ctx context.Context, sc Scenario) (*Result, error) {
	if r.NewSystem == nil {
		return nil, fmt.Errorf("simulate: runner needs a NewSystem factory")
	}
	if r.Dir == "" {
		return nil, fmt.Errorf("simulate: runner needs a working directory")
	}
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("simulate: scenario %q has no phases", sc.Name)
	}
	if sc.Phases[0].Kind != PhaseTrain {
		return nil, fmt.Errorf("simulate: scenario %q must start with a %q phase", sc.Name, PhaseTrain)
	}
	if sc.TopN <= 0 {
		sc.TopN = 10
	}
	u, err := NewUniverse(sc.Universe)
	if err != nil {
		return nil, err
	}
	shadowShard, err := sc.shardUnderTest()
	if err != nil {
		return nil, err
	}
	streamCfg := sc.Stream
	streamCfg.Seed = sc.Seed
	st := &runState{
		universe:    u,
		events:      u.EventStream(streamCfg),
		snapPath:    filepath.Join(r.Dir, "scenario.snap"),
		walPath:     filepath.Join(r.Dir, "scenario.wal"),
		shadowShard: shadowShard,
		finalShards: sc.finalShards(),
	}
	// Epoch watchers (see killShard) live no longer than the run.
	ctx, cancel := context.WithCancel(ctx)
	defer st.watchers.Wait()
	defer cancel()
	res := &Result{Scenario: sc.Name}
	for k, phase := range sc.Phases {
		pr, err := r.runPhase(ctx, &sc, st, phase)
		if err != nil {
			return res, fmt.Errorf("simulate: scenario %q phase %d (%s): %w", sc.Name, k, phase.Kind, err)
		}
		if pr.Epoch > st.baseEpoch {
			st.baseEpoch = pr.Epoch
		}
		res.Phases = append(res.Phases, pr)
	}
	return res, nil
}

// runPhase dispatches one phase against the run state. Train is always the
// first phase, and it refuses a primary that cannot run the rest, so no
// phase after it re-checks the primary's shape.
func (r *Runner) runPhase(ctx context.Context, sc *Scenario, st *runState, p Phase) (PhaseResult, error) {
	pr := PhaseResult{Kind: p.Kind}
	switch p.Kind {
	case PhaseTrain:
		return pr, r.train(sc, st)
	case PhaseSave:
		return pr, st.primary.Save(st.snapPath)
	case PhaseLoad:
		return r.load(ctx, st, pr)
	case PhaseServeUnderLoad:
		return r.serveUnderLoad(ctx, sc, st, p, pr)
	case PhaseOverload:
		return r.overload(ctx, sc, st, p, pr)
	case PhaseIngestChurn:
		return r.ingestChurn(ctx, sc, st, p, pr)
	case PhaseKillAndRecover:
		return r.killAndRecover(ctx, st, pr)
	}
	pr.Shard = p.Shard
	switch p.Kind {
	case PhaseKillShard:
		return pr, st.killShard(ctx, p.Shard)
	case PhaseRestartShard:
		replayed, err := st.cluster.RestartShard(p.Shard)
		if err != nil {
			return pr, fmt.Errorf("restart shard %d: %w", p.Shard, err)
		}
		pr.Replayed = replayed
	case PhasePromoteReplica:
		epoch, err := st.cluster.PromoteReplica(p.Shard)
		if err != nil {
			return pr, fmt.Errorf("promote shard %d: %w", p.Shard, err)
		}
		pr.Epoch = epoch
	case PhaseAwaitPromotion:
		if err := st.awaitPromotion(ctx, p.Shard, &pr); err != nil {
			return pr, err
		}
	case PhaseRejoinReplica:
		return pr, st.rejoinReplica(p.Shard, &pr)
	case PhaseShardParity:
	default:
		return pr, fmt.Errorf("unknown phase kind %q", p.Kind)
	}
	return pr, st.shardParity(ctx, p.Shard, &pr)
}

// train stands up the primary (and the shadow when the scenario needs one),
// refuses a primary the scenario's phases cannot run against, and enables
// ingestion when later phases will send events.
func (r *Runner) train(sc *Scenario, st *runState) error {
	st.primary = r.NewSystem()
	if err := st.primary.Train(st.universe.Train(), sc.TopN); err != nil {
		return err
	}
	st.cluster, _ = st.primary.(ClusterSystem)
	if st.cluster != nil {
		st.baseEpoch = st.cluster.Epoch()
	}
	st.watchEpochs = sc.has(PhaseAwaitPromotion)
	ingests := sc.has(PhaseIngestChurn, PhaseKillAndRecover, PhaseRestartShard, PhasePromoteReplica, PhaseAwaitPromotion)
	replicated := sc.has(PhasePromoteReplica, PhaseRejoinReplica, PhaseAwaitPromotion)
	for _, p := range sc.Phases {
		ingests = ingests || p.Mix.Ingest > 0
		replicated = replicated || p.MaxReplicaLagEvents != nil
	}
	if st.shadowShard >= 0 {
		if st.cluster == nil {
			return fmt.Errorf("scenario drills shard %d but the primary is not sharded", st.shadowShard)
		}
		// The drilled shard must exist at some point of the lifecycle (the
		// boot topology or a reshard target) and in the final topology, where
		// the parity check runs.
		if limit := max(st.cluster.NumShards(), st.finalShards); st.shadowShard >= limit {
			return fmt.Errorf("scenario drills shard %d of a primary that never exceeds %d shards", st.shadowShard, limit)
		}
		if st.finalShards > 0 && st.shadowShard >= st.finalShards {
			return fmt.Errorf("scenario drills shard %d but asserts its parity in a %d-shard topology; the drilled shard must survive until then", st.shadowShard, st.finalShards)
		}
	}
	if replicated && (st.cluster == nil || st.cluster.NumReplicas() == 0) {
		return fmt.Errorf("scenario promotes, rejoins or bounds the lag of replicas, but the primary has none")
	}
	if ingests {
		// The primary runs the full durability stack; checkpoints target the
		// same snapshot path PhaseSave writes, mirroring gancd.
		if err := st.primary.EnableIngest(st.walPath, st.snapPath, sc.CheckpointEvery); err != nil {
			return err
		}
	}
	if sc.has(PhaseKillAndRecover) || sc.has(shardParityPhases...) {
		newShadow := r.NewShadow
		if newShadow == nil {
			newShadow = r.NewSystem
		}
		st.shadow = newShadow()
		if err := st.shadow.Train(st.universe.Train(), sc.TopN); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
		// The shadow is the uninterrupted reference: same events, no WAL, no
		// checkpoints, no crash. For a sharded primary it absorbs only the
		// drilled shard's routed events, making it the single-node ground
		// truth for that shard's recovery.
		if err := st.shadow.EnableIngest("", "", 0); err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
	}
	return nil
}

// shadowEvents filters an applied batch down to what the shadow must
// absorb: everything for single-node runs, only the drilled shard's routed
// slice for cluster runs. When the scenario reshards, ownership is evaluated
// against the final topology from the first phase on — events a pre-reshard
// churn routes to the drilled shard's users' old owners reach the drilled
// shard later through the migration, so the shadow must hold them too.
func (st *runState) shadowEvents(events []serve.IngestEvent) []serve.IngestEvent {
	if st.shadowShard < 0 {
		return events
	}
	owner := st.cluster.ShardOwner
	if final := st.finalShards; final > 0 {
		owner = func(userKey string) int { return st.cluster.OwnerAt(userKey, final) }
	}
	var out []serve.IngestEvent
	for _, ev := range events {
		if owner(ev.User) == st.shadowShard {
			out = append(out, ev)
		}
	}
	return out
}

// load asserts warm-start parity: reloading the snapshot must not change the
// system's observable output.
func (r *Runner) load(ctx context.Context, st *runState, pr PhaseResult) (PhaseResult, error) {
	before, err := st.primary.Fingerprint(ctx)
	if err != nil {
		return pr, fmt.Errorf("fingerprint before load: %w", err)
	}
	if err := st.primary.Load(st.snapPath); err != nil {
		return pr, err
	}
	after, err := st.primary.Fingerprint(ctx)
	if err != nil {
		return pr, fmt.Errorf("fingerprint after load: %w", err)
	}
	if !bytes.Equal(before, after) {
		return pr, fmt.Errorf("warm-start parity broken: output changed across save/load (%d vs %d bytes)", len(before), len(after))
	}
	pr.ParityChecked = true
	return pr, nil
}

// loadTarget serves the primary's handler on a loopback listener for the
// length of a load phase and builds the driver configuration the phase asks
// for; zero knobs take the given defaults. serve-under-load and overload
// share it and differ only in their defaults and assertions.
func loadTarget(sc *Scenario, st *runState, p Phase, requests, concurrency int, mix LoadMix) (*httptest.Server, LoadConfig, error) {
	h, err := st.primary.Handler()
	if err != nil {
		return nil, LoadConfig{}, err
	}
	if p.Requests > 0 {
		requests = p.Requests
	}
	if p.Concurrency > 0 {
		concurrency = p.Concurrency
	}
	if p.Mix != (LoadMix{}) {
		mix = p.Mix
	}
	ts := httptest.NewServer(h)
	return ts, LoadConfig{
		BaseURL:     ts.URL,
		Requests:    requests,
		Concurrency: concurrency,
		Mix:         mix,
		BatchSize:   p.BatchSize,
		Seed:        sc.Seed + 1,
	}, nil
}

// serveUnderLoad runs the closed-loop driver against the primary's handler.
func (r *Runner) serveUnderLoad(ctx context.Context, sc *Scenario, st *runState, p Phase, pr PhaseResult) (PhaseResult, error) {
	ts, cfg, err := loadTarget(sc, st, p, 200, 4, LoadMix{Recommend: 90, Batch: 10})
	if err != nil {
		return pr, err
	}
	defer ts.Close()
	if st.shadow != nil {
		// Driver-generated ingest traffic would advance the primary past the
		// shadow (the driver's events never reach it), voiding the recovery
		// equivalence the shadow exists for; event streaming belongs to
		// ingest-churn phases, which feed both systems identically.
		cfg.Mix.Ingest = 0
	}

	// A mid-load event — a shard kill or a reshard — fires on its own timer
	// while the driver runs; the phase collects its outcome once the load
	// returns, waiting at most `wait` for an event still in flight.
	var (
		what      string // names the event in errors
		fire      func() error
		wait      time.Duration
		stats     *cluster.ReshardStats
		lagSkip   = -1 // the killed shard: its shipper died with its primary
		tolerated bool // client-visible errors are recorded, not failed on
	)
	switch {
	case p.KillShardMid != nil && p.ReshardMid != nil:
		return pr, fmt.Errorf("a serve-under-load phase cannot both kill a shard and reshard mid-load")
	case p.ReshardMid != nil:
		// Nothing here may fail: the staged cutover (writes re-routed at
		// begin, reads double-dispatched to old owners until each user's
		// history lands) must make the topology change invisible to clients.
		target := *p.ReshardMid
		pr.Shard = p.Shard
		what, wait = fmt.Sprintf("reshard to %d shards", target), 60*time.Second
		fire = func() (err error) {
			stats, err = st.cluster.Reshard(target)
			return err
		}
	case p.KillShardMid != nil:
		shard := *p.KillShardMid
		pr.Shard, lagSkip = shard, shard
		what, wait = fmt.Sprintf("kill of shard %d", shard), 5*time.Second
		fire = func() error { return st.killShard(ctx, shard) }
		// With warm replicas and a read-only mix the router's read failover
		// must mask the outage completely. Otherwise requests owned by the
		// dead shard answer the router's typed 503 from the kill on — those
		// errors are the point of the outage drill.
		tolerated = st.cluster.NumReplicas() == 0 || cfg.Mix.Ingest > 0
	}
	var fired chan error
	if fire != nil {
		delayMs := p.MidLoadDelayMs
		if delayMs <= 0 {
			delayMs = defaultMidLoadDelayMs
		}
		fired = make(chan error, 1)
		timer := time.AfterFunc(time.Duration(delayMs)*time.Millisecond, func() { fired <- fire() })
		defer timer.Stop()
	}
	res, err := RunLoad(ctx, st.universe, cfg)
	if err != nil {
		return pr, err
	}
	pr.Load = res
	if fire != nil {
		select {
		case err := <-fired:
			if err != nil {
				return pr, fmt.Errorf("mid-load %s: %w", what, err)
			}
		case <-time.After(wait):
			return pr, fmt.Errorf("mid-load %s never completed", what)
		}
		if stats != nil {
			pr.Reshard, pr.Epoch = stats, stats.Epoch
		}
	}
	switch {
	case res.Errors == 0 || tolerated:
	case fire != nil:
		return pr, fmt.Errorf("mid-load %s leaked %d of %d client-visible errors (it must be invisible to clients)",
			what, res.Errors, res.Requests)
	default:
		return pr, fmt.Errorf("%d of %d requests failed with server-side errors", res.Errors, res.Requests)
	}
	return pr, st.assertReplicaLag(p, lagSkip, &pr)
}

// assertReplicaLag enforces a serve-under-load phase's MaxReplicaLagEvents
// knob: every shard's widest replica lag (except skip, the shard whose
// primary a mid-load kill took down) must drain to the bound within a short
// grace window. A nil knob is a no-op.
func (st *runState) assertReplicaLag(p Phase, skip int, pr *PhaseResult) error {
	if p.MaxReplicaLagEvents == nil {
		return nil
	}
	bound := *p.MaxReplicaLagEvents
	deadline := time.Now().Add(5 * time.Second)
	for {
		var widest uint64
		for sh := 0; sh < st.cluster.NumShards(); sh++ {
			if sh == skip {
				continue
			}
			if lag := st.cluster.ReplicaLag(sh); lag > widest {
				widest = lag
			}
		}
		pr.ReplicaLagEvents = widest
		if widest <= bound {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica lag of %d committed events never drained to the %d-event bound", widest, bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// overload drives offered load well past the primary's admission capacity
// and asserts the degradation is graceful: some requests shed with typed 429
// bodies, zero 5xx, and the requests that were served keep a bounded p99.
// When the handler exposes /metrics the phase also scrapes it mid-scenario
// and validates the body with the strict text-format parser.
func (r *Runner) overload(ctx context.Context, sc *Scenario, st *runState, p Phase, pr PhaseResult) (PhaseResult, error) {
	ts, cfg, err := loadTarget(sc, st, p, 400, 16, LoadMix{Recommend: 100})
	if err != nil {
		return pr, err
	}
	defer ts.Close()
	res, err := RunLoad(ctx, st.universe, cfg)
	if err != nil {
		return pr, err
	}
	pr.Load = res
	if res.Errors > 0 {
		return pr, fmt.Errorf("overload must degrade gracefully, but %d of %d requests failed with 5xx/transport errors", res.Errors, res.Requests)
	}
	if res.Shed == 0 {
		return pr, fmt.Errorf("overload shed nothing across %d requests — is the system built with admission control?", res.Requests)
	}
	if served := res.Overall.Count; served > 0 && res.Overall.P99Ms > overloadMaxP99Ms {
		return pr, fmt.Errorf("served-request p99 %.1fms exceeds the %dms bound (%d served, %d shed)",
			res.Overall.P99Ms, overloadMaxP99Ms, served, res.Shed)
	}

	// The driver discards response bodies, so re-establish the typed-429
	// contract directly. The load shed, so a concurrency cap is below its
	// worker count, and up to twice that many held requests fill the cap; a
	// drained rate budget sheds the first probe anyway.
	if err := probeTyped429(ctx, ts.Client(), ts.URL, 2*cfg.Concurrency); err != nil {
		return pr, err
	}

	if validated, err := scrapeMetrics(ctx, ts.Client(), ts.URL); err != nil {
		return pr, err
	} else {
		pr.MetricsValidated = validated
	}
	return pr, nil
}

// probeTyped429 provokes one shed response and asserts the typed-429
// contract: status 429, a Retry-After header, and a JSON body whose code is
// rate_limited or over_capacity. A concurrency cap sheds only what it cannot
// hold, and one request at a time never exceeds it, so before each
// GET /recommend the probe opens one more POST /recommend/batch whose body
// it does not end until it is done: each one admitted sits in its handler
// reading, holding its slot, until the cap is full and the next GET is shed.
// At most limit requests are held.
func probeTyped429(ctx context.Context, client *http.Client, base string, limit int) error {
	var bodies []*io.PipeWriter
	answered := make(chan struct{}, limit)
	defer func() {
		// Ending the bodies lets every held handler answer.
		for _, w := range bodies {
			w.Close()
		}
		for range bodies {
			<-answered
		}
	}()
	for len(bodies) < limit {
		rest, w := io.Pipe()
		body := io.MultiReader(strings.NewReader(`{"users":[`), rest)
		hold, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/recommend/batch", body)
		if err != nil {
			return err
		}
		bodies = append(bodies, w)
		go func() {
			if resp, err := client.Do(hold); err == nil {
				drain(resp)
			}
			answered <- struct{}{}
		}()
		time.Sleep(time.Millisecond) // let it reach its handler first

		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/recommend?user=probe", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			defer resp.Body.Close()
			return typed429(resp)
		}
		drain(resp)
	}
	return fmt.Errorf("no 429 with %d requests held open, despite a shedding load", limit)
}

// drain reads a response to its end and closes it, so its connection can be
// reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// typed429 checks a shed response's shape.
func typed429(resp *http.Response) error {
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("429 response is missing a Retry-After header")
	}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("429 body is not the typed JSON shape: %w", err)
	}
	if body.Code != "rate_limited" && body.Code != "over_capacity" {
		return fmt.Errorf("429 body code = %q, want rate_limited or over_capacity", body.Code)
	}
	if body.Error == "" {
		return fmt.Errorf("429 body has an empty error message")
	}
	return nil
}

// scrapeMetrics fetches GET /metrics and validates the exposition with the
// strict parser. Returns false without error when the handler has no
// /metrics endpoint (metrics not configured on the system under test).
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	if _, err := obs.ParseText(resp.Body); err != nil {
		return false, fmt.Errorf("/metrics body failed the strict text-format parse: %w", err)
	}
	return true, nil
}

// shardParity asserts the shard's owned-user fingerprint is byte-identical
// to the single-node shadow restricted to the same users — what
// restart-shard, promote-replica and await-promotion assert after their own
// step, and shard-parity on its own. The check is keyed entirely by shard
// ID — ShardOwner and ShardFingerprint are address-agnostic — so it holds
// across a same-address restart and across a promotion that moved the shard
// to a replica's address under a new ring epoch alike.
func (st *runState) shardParity(ctx context.Context, shard int, pr *PhaseResult) error {
	shadowFp, err := st.shadow.Fingerprint(ctx)
	if err != nil {
		return fmt.Errorf("shadow fingerprint: %w", err)
	}
	want := FilterCanonical(shadowFp, func(user string) bool { return st.cluster.ShardOwner(user) == shard })
	if len(want) == 0 {
		return fmt.Errorf("shadow fingerprint covers no users owned by shard %d: the parity check would be vacuous", shard)
	}
	got, err := st.cluster.ShardFingerprint(ctx, shard)
	if err != nil {
		return fmt.Errorf("recovered shard fingerprint: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("shard recovery equivalence broken: shard %d's owned-user output differs from the single-node shadow (replayed %d events, %d vs %d bytes)",
			shard, pr.Replayed, len(got), len(want))
	}
	pr.ParityChecked = true
	return nil
}

// killShard crashes one shard. In a scenario that later awaits a hands-off
// promotion, the epoch watcher starts at the same instant: promotion time is
// measured from the kill, while the load still runs, not from whenever the
// await-promotion phase gets its turn.
func (st *runState) killShard(ctx context.Context, shard int) error {
	if st.watchEpochs {
		killedAt, base := time.Now(), st.baseEpoch
		promoted := make(chan promotion, 1)
		st.promoted = promoted
		st.watchers.Add(1)
		go func() {
			defer st.watchers.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				if epoch := st.cluster.Epoch(); epoch > base {
					promoted <- promotion{epoch, time.Since(killedAt)}
					return
				}
				select {
				case <-tick.C:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	return st.cluster.KillShard(shard)
}

// awaitPromotion observes a hands-off failover: the runner waits for the
// system's own failure detector to promote the killed shard's replica —
// visible to the watcher killShard started as a ring-epoch bump past
// everything the runner has accounted for. No PromoteReplica call is made:
// a promotion that needs the runner is a failed drill.
func (st *runState) awaitPromotion(ctx context.Context, shard int, pr *PhaseResult) error {
	if st.promoted == nil {
		return fmt.Errorf("await-promotion without a preceding kill of shard %d: there is no promotion to wait for", shard)
	}
	select {
	case seen := <-st.promoted:
		pr.Epoch, pr.PromotionMs = seen.epoch, float64(seen.after)/float64(time.Millisecond)
		st.promoted = nil
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(promotionWindow):
		return fmt.Errorf("the failure detector never promoted shard %d's replica within the %s suspicion window (epoch still %d)",
			shard, promotionWindow, st.baseEpoch)
	}
}

// rejoinReplica boots the shard's dead ex-primary as a replica and waits for
// its replication lag to drain to zero: the demoted node must converge on
// the promoted primary's history.
func (st *runState) rejoinReplica(shard int, pr *PhaseResult) error {
	replayed, err := st.cluster.RejoinAsReplica(shard)
	if err != nil {
		return fmt.Errorf("rejoin shard %d: %w", shard, err)
	}
	pr.Replayed = replayed
	deadline := time.Now().Add(10 * time.Second)
	for {
		lag := st.cluster.ReplicaLag(shard)
		pr.ReplicaLagEvents = lag
		if lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rejoined shard %d never converged: replica lag stuck at %d committed events", shard, lag)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ingestChurn streams event batches through the primary's POST /ingest while
// concurrent readers exercise /recommend and /recommend/batch; the shadow
// (when present) absorbs the identical batches directly.
func (r *Runner) ingestChurn(ctx context.Context, sc *Scenario, st *runState, p Phase, pr PhaseResult) (PhaseResult, error) {
	h, err := st.primary.Handler()
	if err != nil {
		return pr, err
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	events := p.Events
	if events <= 0 {
		events = 200
	}
	batch := p.EventBatch
	if batch <= 0 {
		batch = 25
	}
	concurrency := p.Concurrency
	if concurrency <= 0 {
		concurrency = 4
	}

	// Concurrent readers: half issue single lookups, half batch lookups, so
	// the versioned-swap path races both request shapes. They run until the
	// writer below finishes its stream.
	stop := make(chan struct{})
	var readerReqs, readerErrs atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := st.universe.RequestStream(RequestStreamConfig{Seed: sc.Seed + 100 + int64(w)})
			for {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				var s sample
				if w%2 == 0 {
					s = doRecommend(ctx, client, ts.URL, req.NextUser())
				} else {
					s = doBatch(ctx, client, ts.URL, req.NextUsers(5))
				}
				readerReqs.Add(1)
				if s.bad {
					readerErrs.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Sprintf("reader %d: server-side error on %s", w, endpointNames[s.ep]))
				}
			}
		}(w)
	}

	applied := 0
	var ingestErr error
	for applied < events {
		n := batch
		if rest := events - applied; rest < n {
			n = rest
		}
		evs := st.events.NextBatch(n)
		if s := doIngest(ctx, client, ts.URL, evs); s.bad || s.rej {
			// Distinguish a driver-side cancellation from a server rejection,
			// so a CI deadline does not read as an ingestion bug.
			if err := ctx.Err(); err != nil {
				ingestErr = err
			} else {
				ingestErr = fmt.Errorf("ingest batch rejected after %d events", applied)
			}
			break
		}
		if st.shadow != nil {
			if mirror := st.shadowEvents(evs); len(mirror) > 0 {
				if err := st.shadow.Ingest(ctx, mirror); err != nil {
					ingestErr = fmt.Errorf("shadow ingest: %w", err)
					break
				}
			}
		}
		applied += n
	}
	close(stop)
	wg.Wait()

	pr.EventsApplied = applied
	pr.ReaderRequests = readerReqs.Load()
	pr.ReaderErrors = readerErrs.Load()
	if ingestErr != nil {
		return pr, ingestErr
	}
	if err := ctx.Err(); err != nil {
		return pr, err
	}
	if n := readerErrs.Load(); n > 0 {
		msg, _ := firstErr.Load().(string)
		return pr, fmt.Errorf("%d reader requests failed under ingest churn (%s)", n, msg)
	}
	return pr, nil
}

// killAndRecover crashes the primary, restores it from the checkpoint plus
// the WAL suffix, and asserts byte equivalence with the uninterrupted shadow.
func (r *Runner) killAndRecover(ctx context.Context, st *runState, pr PhaseResult) (PhaseResult, error) {
	want, err := st.shadow.Fingerprint(ctx)
	if err != nil {
		return pr, fmt.Errorf("shadow fingerprint: %w", err)
	}
	if err := st.primary.Kill(); err != nil {
		return pr, err
	}
	if err := st.primary.Load(st.snapPath); err != nil {
		return pr, fmt.Errorf("restore checkpoint: %w", err)
	}
	replayed, err := st.primary.Recover()
	if err != nil {
		return pr, fmt.Errorf("replay WAL: %w", err)
	}
	pr.Replayed = replayed
	got, err := st.primary.Fingerprint(ctx)
	if err != nil {
		return pr, fmt.Errorf("recovered fingerprint: %w", err)
	}
	if !bytes.Equal(got, want) {
		return pr, fmt.Errorf("recovery equivalence broken: recovered output differs from uninterrupted shadow (replayed %d events)", replayed)
	}
	pr.ParityChecked = true
	return pr, nil
}

// CanonicalRecommendations serializes a collection in external identifiers,
// one line per user sorted by user key, items in rank order — the byte form
// scenario fingerprints compare. External keys (not dense indices) make the
// form stable across systems whose interner tables grew in different orders.
func CanonicalRecommendations(train *dataset.Dataset, recs types.Recommendations) []byte {
	users := train.UserInterner()
	items := train.ItemInterner()
	lines := make([]string, 0, len(recs))
	for u, set := range recs {
		var sb strings.Builder
		sb.WriteString(users.Key(int32(u)))
		sb.WriteByte('\t')
		for k, i := range set {
			if k > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(items.Key(int32(i)))
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// FilterCanonical keeps the lines of a canonical fingerprint whose user key
// passes the predicate — how a sharded fingerprint is compared against the
// relevant slice of a whole-universe shadow fingerprint.
func FilterCanonical(fp []byte, keep func(userKey string) bool) []byte {
	if len(fp) == 0 {
		return fp
	}
	var out []string
	for _, line := range strings.Split(string(fp), "\n") {
		user, _, ok := strings.Cut(line, "\t")
		if ok && keep(user) {
			out = append(out, line)
		}
	}
	return []byte(strings.Join(out, "\n"))
}
