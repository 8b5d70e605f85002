//go:build e2e

package ganc

import (
	"context"
	"testing"
	"time"
)

// The tier-2 cluster scenario: the kill-one-shard drill at system level,
// driven by the same data-driven runner as the single-node suite but against
// the real sharded assembly — scatter-gather router, per-shard servers,
// write-ahead logs and checkpoints. Run under -race by the CI e2e job:
//
//	go test -race -tags e2e -run TestScenario .
//
// The choreography: train → shard-split save (each shard checkpoints its
// shard-scoped snapshot) → ingest churn through the router (events routed to
// their owning shards; a single-node shadow absorbs exactly the drilled
// shard's slice) → Zipf load with the drilled shard killed mid-load (its
// users' requests fail with the router's typed 503; the phase records
// rather than rejects those errors) → restart the shard from snapshot + WAL
// → a final load phase that must be entirely error-free. The runner asserts
// the recovered shard's owned-user fingerprint is byte-identical to the
// uninterrupted single-node shadow.
func TestScenarioClusterKillShardRecovery(t *testing.T) {
	const drilled = 1
	target := drilled
	sc := Scenario{
		Name:            "cluster-kill-shard",
		Universe:        e2eUniverse(19),
		TopN:            10,
		CheckpointEvery: 0, // WAL-only: the restart must replay the full shard slice
		Seed:            37,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseSave},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8, KillShardMid: &target, MidLoadDelayMs: 150},
			{Kind: PhaseRestartShard, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	churn := res.Phases[2]
	if churn.EventsApplied != 180 {
		t.Fatalf("churn applied %d events, want 180", churn.EventsApplied)
	}
	if churn.ReaderRequests == 0 || churn.ReaderErrors != 0 {
		t.Fatalf("churn readers: %d requests, %d errors", churn.ReaderRequests, churn.ReaderErrors)
	}

	midKill := res.Phases[3]
	if midKill.Load == nil || midKill.Load.Requests != 400 {
		t.Fatalf("mid-kill phase recorded %+v", midKill.Load)
	}
	if midKill.Shard != drilled {
		t.Fatalf("mid-kill phase targeted shard %d, want %d", midKill.Shard, drilled)
	}

	restart := res.Phases[4]
	if !restart.ParityChecked {
		t.Fatal("restart-shard did not assert recovery equivalence against the shadow")
	}
	if restart.Replayed == 0 {
		t.Fatal("restart replayed no events: the WAL suffix was empty, so the drill proved nothing")
	}

	// The post-recovery load is the zero-client-visible-errors criterion:
	// the runner fails the scenario on any server-side error, so reaching
	// here means recovery was clean; the explicit checks below document it.
	after := res.Phases[5]
	if after.Load == nil || after.Load.Errors != 0 {
		t.Fatalf("post-recovery load: %+v", after.Load)
	}
	if after.Load.Requests != 400 {
		t.Fatalf("post-recovery load completed %d of 400 requests", after.Load.Requests)
	}
}

// TestScenarioKillPrimaryMidLoad is the replication chaos drill: every shard
// runs with one warm replica, and the drilled shard's primary is killed in
// the middle of a Zipf read load. Three hard promises are asserted:
//
//  1. Zero client-visible errors. With warm replicas and a read-only mix the
//     router's read failover must mask the outage completely — the phase
//     itself fails on any surviving error (see serve-under-load's
//     replicated-kill contract), and the final load phase re-checks after
//     promotion.
//  2. Bounded staleness. The surviving shards' replica lag must drain to the
//     MaxReplicaLagEvents knob (zero here: the load is read-only, so a
//     healthy shipper has nothing left in flight); the rejoined ex-primary
//     must converge to zero lag before its phase passes.
//  3. Recovery equivalence. The promoted ex-replica's owned-user fingerprint
//     must be byte-identical to the uninterrupted single-node shadow — the
//     same parity contract the restart-shard drill enforces, now across an
//     address change and a bumped ring epoch.
func TestScenarioKillPrimaryMidLoad(t *testing.T) {
	const drilled = 1
	target := drilled
	noLag := uint64(0)
	sc := Scenario{
		Name:            "kill-primary-mid-load",
		Universe:        e2eUniverse(29),
		TopN:            10,
		CheckpointEvery: 0, // WAL-only: replicas converge by replication, not snapshots
		Seed:            43,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				KillShardMid: &target, MidLoadDelayMs: 150, MaxReplicaLagEvents: &noLag},
			{Kind: PhasePromoteReplica, Shard: drilled},
			{Kind: PhaseRejoinReplica, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8, MaxReplicaLagEvents: &noLag},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	churn := res.Phases[1]
	if churn.EventsApplied != 180 {
		t.Fatalf("churn applied %d events, want 180", churn.EventsApplied)
	}

	// The mid-kill load: full request count, zero errors — the kill happened
	// (the runner verifies the kill fired) yet failover hid it.
	midKill := res.Phases[2]
	if midKill.Load == nil || midKill.Load.Requests != 400 {
		t.Fatalf("mid-kill phase recorded %+v", midKill.Load)
	}
	if midKill.Load.Errors != 0 {
		t.Fatalf("mid-kill load leaked %d errors despite replicas", midKill.Load.Errors)
	}
	if midKill.ReplicaLagEvents != 0 {
		t.Fatalf("surviving shards' replica lag %d events, want 0", midKill.ReplicaLagEvents)
	}

	// Promotion: a bumped epoch and the byte-identical owned-user parity
	// check against the uninterrupted shadow.
	promote := res.Phases[3]
	if promote.Epoch < 2 {
		t.Fatalf("promotion left the ring at epoch %d, want a bump past 1", promote.Epoch)
	}
	if !promote.ParityChecked {
		t.Fatal("promote-replica did not assert parity against the shadow")
	}

	// Rejoin: the dead ex-primary replayed its own WAL (the churn slice it
	// committed while it was the primary) and converged to zero lag.
	rejoin := res.Phases[4]
	if rejoin.Replayed == 0 {
		t.Fatal("rejoin replayed no events: the ex-primary's WAL was empty, so the drill proved nothing")
	}
	if rejoin.ReplicaLagEvents != 0 {
		t.Fatalf("rejoined replica stuck %d events behind", rejoin.ReplicaLagEvents)
	}

	// Post-promotion serving: error-free at the new epoch, replicas in sync.
	after := res.Phases[5]
	if after.Load == nil || after.Load.Requests != 400 || after.Load.Errors != 0 {
		t.Fatalf("post-promotion load: %+v", after.Load)
	}
	if after.ReplicaLagEvents != 0 {
		t.Fatalf("post-promotion replica lag %d events, want 0", after.ReplicaLagEvents)
	}
}

// TestScenarioAutoFailoverKillPrimaryMidLoad is the hands-off failover drill:
// the kill-primary chaos scenario with NO manual promotion anywhere in the
// phase list. Every shard runs two warm replicas with a k=2-of-2 write
// quorum and the failure detector armed for auto-failover; the drilled
// shard's primary is killed mid-read-load and the scenario then merely WAITS
// (await-promotion) for the detector to suspect the corpse, promote the
// freshest replica, and republish the ring on its own. Hard promises:
//
//  1. Zero operator intervention. The phase list contains no promote-replica;
//     the epoch bump the await-promotion phase observes can only come from
//     the detector's suspicion callback.
//  2. Zero client-visible errors. The router masks the outage through the
//     detector's cached liveness view while promotion is in flight.
//  3. Quorum durability. The churn events were each acknowledged only after
//     both replicas held them (k=2, n=2), so the promoted replica must carry
//     every acked write: await-promotion's parity check compares the new
//     primary's owned-user fingerprint byte-for-byte against the
//     uninterrupted single-node shadow.
//  4. Replica-assisted rejoin. The dead ex-primary rejoins as a replica and
//     converges to zero lag, after which serving stays error-free.
func TestScenarioAutoFailoverKillPrimaryMidLoad(t *testing.T) {
	const drilled = 1
	target := drilled
	noLag := uint64(0)
	sc := Scenario{
		Name:            "auto-failover-kill-primary",
		Universe:        e2eUniverse(41),
		TopN:            10,
		CheckpointEvery: 0,
		Seed:            61,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				KillShardMid: &target, MidLoadDelayMs: 150},
			{Kind: PhaseAwaitPromotion, Shard: drilled},
			{Kind: PhaseRejoinReplica, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8, MaxReplicaLagEvents: &noLag},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 2, 2,
		WithWriteQuorum(2), WithAutoFailover(), WithFailureDetection(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	if churn := res.Phases[1]; churn.EventsApplied != 180 {
		t.Fatalf("churn applied %d events, want 180", churn.EventsApplied)
	}

	midKill := res.Phases[2]
	if midKill.Load == nil || midKill.Load.Requests != 400 {
		t.Fatalf("mid-kill phase recorded %+v", midKill.Load)
	}
	if midKill.Load.Errors != 0 {
		t.Fatalf("mid-kill load leaked %d errors despite replicas and the detector view", midKill.Load.Errors)
	}

	// The detector promoted with no operator call: the epoch bumped past the
	// training-time baseline, and the promoted primary carries every
	// quorum-acked write (byte-identical to the shadow).
	promoted := res.Phases[3]
	if promoted.Epoch < 2 {
		t.Fatalf("await-promotion observed epoch %d, want a bump past 1", promoted.Epoch)
	}
	if !promoted.ParityChecked {
		t.Fatal("await-promotion did not assert quorum durability via shadow parity")
	}

	rejoin := res.Phases[4]
	if rejoin.ReplicaLagEvents != 0 {
		t.Fatalf("rejoined ex-primary stuck %d events behind", rejoin.ReplicaLagEvents)
	}

	after := res.Phases[5]
	if after.Load == nil || after.Load.Requests != 400 || after.Load.Errors != 0 {
		t.Fatalf("post-promotion load: %+v", after.Load)
	}
	if after.ReplicaLagEvents != 0 {
		t.Fatalf("post-promotion replica lag %d events, want 0", after.ReplicaLagEvents)
	}
}

// TestScenarioReshardGrowWhileReplicated is the grow-the-ring-while-replicas-
// lag chaos drill: a replicated 2-shard cluster grows to 3 shards in the
// middle of a read load. The new shard's replica is the stress point — it
// boots from a history-empty snapshot while the live migration bursts every
// reassigned user's history through the new primary's shipper, so it lags by
// construction mid-drill and must converge through replication catch-up
// alone. Hard promises: zero client-visible errors through the cutover, real
// migration, byte-identical parity for the new shard after post-grow churn,
// and zero replica lag everywhere once the dust settles. The drill then
// runs the mirror case, grow → promote → shrink: the grown shard's primary
// is killed, its replica promoted (parity asserted across the promotion),
// and the ring shrinks back to 2 shards mid-load — the promoted ex-replica
// is now the migration source and the node being retired, which only works
// when a promoted node is the same kind of node a booted primary is. Same
// promises: zero client-visible errors, real migration, zero lag after.
func TestScenarioReshardGrowWhileReplicated(t *testing.T) {
	const drilled = 2 // the shard the grow adds
	grown, shrunk := 3, 2
	noLag := uint64(0)
	sc := Scenario{
		Name:            "reshard-grow-replicated",
		Universe:        e2eUniverse(43),
		TopN:            10,
		CheckpointEvery: 0,
		Seed:            67,
		Stream:          EventStreamConfig{NewUserRate: -1, NewItemRate: -1},
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				ReshardMid: &grown, Shard: drilled, MidLoadDelayMs: 100},
			{Kind: PhaseIngestChurn, Events: 120, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseShardParity, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8, MaxReplicaLagEvents: &noLag},
			{Kind: PhaseKillShard, Shard: drilled},
			{Kind: PhasePromoteReplica, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				ReshardMid: &shrunk, Shard: drilled, MidLoadDelayMs: 100, MaxReplicaLagEvents: &noLag},
			{Kind: PhaseIngestChurn, Events: 60, EventBatch: 30, Concurrency: 4},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}

	mid := res.Phases[2]
	if mid.Load == nil || mid.Load.Requests != 400 || mid.Load.Errors != 0 {
		t.Fatalf("mid-grow load: %+v", mid.Load)
	}
	rs := mid.Reshard
	if rs == nil {
		t.Fatal("mid-grow phase recorded no migration stats")
	}
	if rs.FromShards != 2 || rs.ToShards != 3 || rs.Epoch != 2 {
		t.Fatalf("reshard stats topology %d→%d epoch %d, want 2→3 epoch 2", rs.FromShards, rs.ToShards, rs.Epoch)
	}
	if rs.UsersMigrated == 0 || rs.EventsMigrated == 0 {
		t.Fatalf("grow migrated %d users / %d events; a drill where nothing moves proves nothing", rs.UsersMigrated, rs.EventsMigrated)
	}

	parity := res.Phases[4]
	if !parity.ParityChecked || parity.Shard != drilled {
		t.Fatalf("shard-parity did not assert the new shard's equivalence: %+v", parity)
	}
	final := res.Phases[5]
	if final.Load == nil || final.Load.Requests != 400 || final.Load.Errors != 0 {
		t.Fatalf("post-grow load: %+v", final.Load)
	}
	if final.ReplicaLagEvents != 0 {
		t.Fatalf("replicas still %d events behind after the grow settled", final.ReplicaLagEvents)
	}

	promoted := res.Phases[7]
	if !promoted.ParityChecked || promoted.Epoch != 3 {
		t.Fatalf("promotion of the grown shard: %+v, want parity checked at epoch 3", promoted)
	}
	shrink := res.Phases[8]
	if shrink.Load == nil || shrink.Load.Requests != 400 || shrink.Load.Errors != 0 {
		t.Fatalf("mid-shrink load: %+v", shrink.Load)
	}
	rs = shrink.Reshard
	if rs == nil || rs.FromShards != 3 || rs.ToShards != 2 || rs.Epoch != 4 {
		t.Fatalf("shrink stats %+v, want 3→2 at epoch 4", rs)
	}
	if rs.UsersMigrated == 0 || rs.EventsMigrated == 0 {
		t.Fatalf("shrink migrated %d users / %d events off the promoted shard", rs.UsersMigrated, rs.EventsMigrated)
	}
	if shrink.ReplicaLagEvents != 0 {
		t.Fatalf("replicas still %d events behind after the shrink settled", shrink.ReplicaLagEvents)
	}
	if churn := res.Phases[9]; churn.EventsApplied != 60 {
		t.Fatalf("post-shrink churn applied %d of 60 events", churn.EventsApplied)
	}
}

// TestScenarioReshardGrowMidLoad is the elastic-growth chaos drill: a
// 2-shard cluster takes pre-reshard ingest churn, then grows to 3 shards in
// the middle of a Zipf read load. The drilled shard is the NEW shard 2 —
// born empty of history, populated entirely by the live migration plus the
// post-reshard churn of its finally-owned users. Hard promises:
//
//  1. Zero client-visible errors through the cutover. The staged transition
//     (writes re-routed at begin, reads double-dispatched to old owners until
//     each user's history lands) must make the grow invisible; the phase
//     itself fails on any error.
//  2. Real migration. The reshard stats must show users and events actually
//     moved — a drill where nothing migrates proves nothing.
//  3. Byte-identical convergence. After more churn lands on the grown ring,
//     the new shard's owned-user fingerprint must equal the uninterrupted
//     single-node shadow restricted to the same users. The shadow absorbed
//     the drilled shard's final-topology event slice from the first churn on,
//     so the comparison spans history that arrived via migration AND history
//     that arrived via normal post-reshard routing.
//
// The universe is closed (negative new-user/new-item rates): a migrated
// shard applies its users' histories in per-user order, which matches the
// shadow's global order byte-for-byte only when no event can extend the
// interner tables (see DESIGN.md §14).
func TestScenarioReshardGrowMidLoad(t *testing.T) {
	const drilled = 2 // the shard the grow adds
	grown := 3
	sc := Scenario{
		Name:            "reshard-grow-mid-load",
		Universe:        e2eUniverse(31),
		TopN:            10,
		CheckpointEvery: 0,
		Seed:            53,
		Stream:          EventStreamConfig{NewUserRate: -1, NewItemRate: -1},
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				ReshardMid: &grown, Shard: drilled, MidLoadDelayMs: 100},
			{Kind: PhaseIngestChurn, Events: 120, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseShardParity, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}

	churn := res.Phases[1]
	if churn.EventsApplied != 180 {
		t.Fatalf("pre-reshard churn applied %d events, want 180", churn.EventsApplied)
	}

	mid := res.Phases[2]
	if mid.Load == nil || mid.Load.Requests != 400 {
		t.Fatalf("mid-reshard phase recorded %+v", mid.Load)
	}
	if mid.Load.Errors != 0 {
		t.Fatalf("mid-reshard load leaked %d errors; the cutover must be invisible", mid.Load.Errors)
	}
	rs := mid.Reshard
	if rs == nil {
		t.Fatal("mid-reshard phase recorded no migration stats")
	}
	if rs.FromShards != 2 || rs.ToShards != 3 || rs.Epoch != 2 {
		t.Fatalf("reshard stats topology %d→%d epoch %d, want 2→3 epoch 2", rs.FromShards, rs.ToShards, rs.Epoch)
	}
	if rs.UsersMigrated == 0 || rs.EventsMigrated == 0 {
		t.Fatalf("reshard migrated %d users / %d events; a drill where nothing moves proves nothing", rs.UsersMigrated, rs.EventsMigrated)
	}
	if rs.UsersMigrated > rs.UsersMoved {
		t.Fatalf("reshard migrated %d users but only %d changed owner", rs.UsersMigrated, rs.UsersMoved)
	}

	if after := res.Phases[3]; after.EventsApplied != 120 {
		t.Fatalf("post-reshard churn applied %d events, want 120", after.EventsApplied)
	}
	parity := res.Phases[4]
	if !parity.ParityChecked || parity.Shard != drilled {
		t.Fatalf("shard-parity did not assert the new shard's equivalence: %+v", parity)
	}
	if final := res.Phases[5]; final.Load == nil || final.Load.Requests != 400 || final.Load.Errors != 0 {
		t.Fatalf("post-reshard load: %+v", final.Load)
	}
}

// TestScenarioReshardShrinkMidLoad is the inverse drill: a 3-shard cluster
// shrinks to 2 in the middle of a Zipf read load, retiring shard 2 and
// migrating its users' histories to the survivors. The drilled shard is
// survivor 0: after the shrink it owns its original users PLUS the ex-shard-2
// users the ring reassigns to it, and its owned-user fingerprint must match
// the uninterrupted shadow — which absorbed exactly the final 2-shard
// topology's shard-0 slice from the first churn on. Ring minimality
// guarantees no user moves between the survivors themselves, so the final
// slice is well-defined from the start.
func TestScenarioReshardShrinkMidLoad(t *testing.T) {
	const drilled = 0 // a survivor that inherits part of the retired shard
	shrunk := 2
	sc := Scenario{
		Name:            "reshard-shrink-mid-load",
		Universe:        e2eUniverse(37),
		TopN:            10,
		CheckpointEvery: 0,
		Seed:            59,
		Stream:          EventStreamConfig{NewUserRate: -1, NewItemRate: -1},
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseIngestChurn, Events: 180, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8,
				ReshardMid: &shrunk, Shard: drilled, MidLoadDelayMs: 100},
			{Kind: PhaseIngestChurn, Events: 120, EventBatch: 30, Concurrency: 4},
			{Kind: PhaseShardParity, Shard: drilled},
			{Kind: PhaseServeUnderLoad, Requests: 400, Concurrency: 8},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}

	mid := res.Phases[2]
	if mid.Load == nil || mid.Load.Requests != 400 || mid.Load.Errors != 0 {
		t.Fatalf("mid-shrink load: %+v", mid.Load)
	}
	rs := mid.Reshard
	if rs == nil {
		t.Fatal("mid-shrink phase recorded no migration stats")
	}
	if rs.FromShards != 3 || rs.ToShards != 2 || rs.Epoch != 2 {
		t.Fatalf("reshard stats topology %d→%d epoch %d, want 3→2 epoch 2", rs.FromShards, rs.ToShards, rs.Epoch)
	}
	if rs.UsersMigrated == 0 || rs.EventsMigrated == 0 {
		t.Fatalf("shrink migrated %d users / %d events; the retired shard's history must move", rs.UsersMigrated, rs.EventsMigrated)
	}

	parity := res.Phases[4]
	if !parity.ParityChecked || parity.Shard != drilled {
		t.Fatalf("shard-parity did not assert the survivor's equivalence: %+v", parity)
	}
	if final := res.Phases[5]; final.Load == nil || final.Load.Requests != 400 || final.Load.Errors != 0 {
		t.Fatalf("post-shrink load: %+v", final.Load)
	}
}

// TestScenarioClusterWarmStartParity: the whole-cluster restart. Saving
// checkpoints every shard; Load kills and restores all of them (snapshot +
// WAL replay); the runner asserts the cluster's union fingerprint is
// byte-identical across the restart, then serving resumes error-free.
func TestScenarioClusterWarmStartParity(t *testing.T) {
	sc := Scenario{
		Name:     "cluster-warm-start",
		Universe: e2eUniverse(23),
		TopN:     10,
		Seed:     41,
		Phases: []ScenarioPhase{
			{Kind: PhaseTrain},
			{Kind: PhaseSave},
			{Kind: PhaseServeUnderLoad, Requests: 300, Concurrency: 8},
			{Kind: PhaseLoad},
			{Kind: PhaseServeUnderLoad, Requests: 300, Concurrency: 8},
		},
	}
	res, err := RunClusterScenario(context.Background(), sc, t.TempDir(), SimSystemConfig{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[3].ParityChecked {
		t.Fatal("cluster load phase did not assert warm-start parity")
	}
	for _, k := range []int{2, 4} {
		load := res.Phases[k].Load
		if load == nil || load.Requests != 300 || load.Errors != 0 {
			t.Fatalf("cluster serve phase %d: %+v", k, load)
		}
	}
}
