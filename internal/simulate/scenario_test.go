package simulate

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/admit"
	"ganc/internal/cluster"
	"ganc/internal/dataset"
	"ganc/internal/obs"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// fakeSystem is an in-memory System over files of its own: state is the
// ordered list of applied events, its "snapshot" serializes that list to
// disk, its WAL mirrors the real ingestor's append-then-checkpoint contract.
// It lets the runner's sequencing and assertions be tested without training
// anything.
type fakeSystem struct {
	mu     sync.Mutex
	train  *dataset.Dataset
	events []serve.IngestEvent
	// dir holds the snapshot and the WAL; every is the checkpoint cadence.
	dir   string
	every int
	// checkpointed is the event count covered by the last checkpoint.
	checkpointed int
	sinceCkpt    int
	killed       bool
	// calls records the lifecycle for sequencing assertions.
	calls []string
}

// newFake builds a fake owning a fresh directory, checkpointing every
// `every` events (0 = on Checkpoint only).
func newFake(t *testing.T, every int) *fakeSystem {
	return &fakeSystem{dir: t.TempDir(), every: every}
}

// fakeState is the snapshot/WAL wire form.
type fakeState struct {
	Events []serve.IngestEvent `json:"events"`
}

func (f *fakeSystem) record(call string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, call)
}

func (f *fakeSystem) snapPath() string { return filepath.Join(f.dir, "fake.snap") }
func (f *fakeSystem) walPath() string  { return filepath.Join(f.dir, "fake.wal") }

func (f *fakeSystem) Train(train *dataset.Dataset, topN int) error {
	f.record("train")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.train = train
	f.killed = false
	return f.writeStateLocked()
}

func (f *fakeSystem) Handler() (http.Handler, error) {
	if f.killed {
		return nil, fmt.Errorf("fake: killed")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.InfoResponse{Version: 1})
	})
	mux.HandleFunc("/recommend", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.RecommendResponse{User: r.URL.Query().Get("user")})
	})
	mux.HandleFunc("/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(serve.BatchResponse{})
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req serve.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if err := f.Ingest(r.Context(), req.Events); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(serve.IngestResult{Applied: len(req.Events)})
	})
	return mux, nil
}

func (f *fakeSystem) Checkpoint() error {
	f.record("checkpoint")
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeStateLocked()
}

func (f *fakeSystem) writeStateLocked() error {
	data, err := json.Marshal(fakeState{Events: f.events})
	if err != nil {
		return err
	}
	f.checkpointed = len(f.events)
	f.sinceCkpt = 0
	return os.WriteFile(f.snapPath(), data, 0o644)
}

func (f *fakeSystem) Ingest(ctx context.Context, events []serve.IngestEvent) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return fmt.Errorf("fake: killed")
	}
	// WAL first, then state, then maybe checkpoint — the real contract.
	wal, err := os.OpenFile(f.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	for _, ev := range events {
		line, _ := json.Marshal(ev)
		if _, err := wal.Write(append(line, '\n')); err != nil {
			wal.Close()
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	f.events = append(f.events, events...)
	f.sinceCkpt += len(events)
	if f.every > 0 && f.sinceCkpt >= f.every {
		return f.writeStateLocked()
	}
	return nil
}

// Restart boots from the snapshot, then replays the WAL past its cursor.
func (f *fakeSystem) Restart() (int, error) {
	f.record("restart")
	data, err := os.ReadFile(f.snapPath())
	if err != nil {
		return 0, err
	}
	var st fakeState
	if err := json.Unmarshal(data, &st); err != nil {
		return 0, err
	}
	wal, err := os.ReadFile(f.walPath())
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.events, f.checkpointed, f.sinceCkpt, f.killed = st.Events, len(st.Events), 0, false
	replayed := 0
	for k, line := range strings.Split(strings.TrimSpace(string(wal)), "\n") {
		if line == "" || k < f.checkpointed {
			continue
		}
		var ev serve.IngestEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return replayed, err
		}
		f.events = append(f.events, ev)
		f.sinceCkpt++
		replayed++
	}
	return replayed, nil
}

func (f *fakeSystem) Kill() error {
	f.record("kill")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.killed = true
	// A crash loses everything not persisted.
	f.events = nil
	return nil
}

func (f *fakeSystem) Fingerprint(ctx context.Context) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return nil, fmt.Errorf("fake: killed")
	}
	return canonicalEvents(f.events), nil
}

// canonicalEvents serializes applied events in the canonical fingerprint
// line form ("user\tv1,v2,…", sorted by user), so fake fingerprints compose
// with FilterCanonical exactly like real ones.
func canonicalEvents(events []serve.IngestEvent) []byte {
	perUser := make(map[string][]string)
	for _, ev := range events {
		perUser[ev.User] = append(perUser[ev.User], fmt.Sprintf("%s=%g", ev.Item, ev.Value))
	}
	lines := make([]string, 0, len(perUser))
	for user, vals := range perUser {
		lines = append(lines, user+"\t"+strings.Join(vals, ","))
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

// shardedFake is a multi-node fake: one fakeSystem per shard behind a
// hash-partitioning mux — the same topology the real cluster binding has,
// without any training. It is the ClusterSystem of the cluster-phase runner
// tests.
type shardedFake struct {
	shards []*fakeSystem
	n      int
}

// newShardedFake builds n shards, each owning a directory of its own and
// checkpointing every `every` events.
func newShardedFake(t *testing.T, n, every int) *shardedFake {
	f := &shardedFake{n: n}
	for i := 0; i < n; i++ {
		f.shards = append(f.shards, newFake(t, every))
	}
	return f
}

// owner assigns users to shards by a stable string hash.
func (f *shardedFake) owner(user string) int { return f.OwnerAt(user, f.n) }

func (f *shardedFake) OwnerAt(user string, shards int) int {
	h := 0
	for _, c := range user {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % shards
}

func (f *shardedFake) Train(train *dataset.Dataset, topN int) error {
	for _, s := range f.shards {
		if err := s.Train(train, topN); err != nil {
			return err
		}
	}
	return nil
}

func (f *shardedFake) Handler() (http.Handler, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/info", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.InfoResponse{Version: 1})
	})
	mux.HandleFunc("/recommend", func(w http.ResponseWriter, r *http.Request) {
		user := r.URL.Query().Get("user")
		s := f.shards[f.owner(user)]
		s.mu.Lock()
		dead := s.killed
		s.mu.Unlock()
		if dead {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "shard unavailable", "code": "shard_unavailable"})
			return
		}
		json.NewEncoder(w).Encode(serve.RecommendResponse{User: user})
	})
	mux.HandleFunc("/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		for _, user := range req.Users {
			s := f.shards[f.owner(user)]
			s.mu.Lock()
			dead := s.killed
			s.mu.Unlock()
			if dead {
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{"error": "shard unavailable", "code": "shard_unavailable"})
				return
			}
		}
		json.NewEncoder(w).Encode(serve.BatchResponse{})
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		var req serve.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if err := f.Ingest(r.Context(), req.Events); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(serve.IngestResult{Applied: len(req.Events)})
	})
	return mux, nil
}

// Checkpoint checkpoints every live shard.
func (f *shardedFake) Checkpoint() error {
	for _, s := range f.shards {
		s.mu.Lock()
		dead := s.killed
		s.mu.Unlock()
		if dead {
			continue
		}
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

func (f *shardedFake) Ingest(ctx context.Context, events []serve.IngestEvent) error {
	perShard := make(map[int][]serve.IngestEvent)
	for _, ev := range events {
		o := f.owner(ev.User)
		perShard[o] = append(perShard[o], ev)
	}
	for shard, evs := range perShard {
		if err := f.shards[shard].Ingest(ctx, evs); err != nil {
			return err
		}
	}
	return nil
}

// Restart restarts every shard from its own files.
func (f *shardedFake) Restart() (int, error) {
	total := 0
	for _, s := range f.shards {
		n, err := s.Restart()
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (f *shardedFake) Kill() error {
	for _, s := range f.shards {
		if err := s.Kill(); err != nil {
			return err
		}
	}
	return nil
}

func (f *shardedFake) Fingerprint(ctx context.Context) ([]byte, error) {
	var all []serve.IngestEvent
	for _, s := range f.shards {
		s.mu.Lock()
		if s.killed {
			s.mu.Unlock()
			return nil, fmt.Errorf("fake: shard killed")
		}
		all = append(all, s.events...)
		s.mu.Unlock()
	}
	return canonicalEvents(all), nil
}

func (f *shardedFake) NumShards() int                { return f.n }
func (f *shardedFake) ShardOwner(userKey string) int { return f.owner(userKey) }
func (f *shardedFake) KillShard(shard int) error     { return f.shards[shard].Kill() }

// The fake is unreplicated and cannot reshard; failoverFake adds replicas.
func (f *shardedFake) NumReplicas() int                   { return 0 }
func (f *shardedFake) PromoteReplica(int) (uint64, error) { return 0, fmt.Errorf("fake: no replicas") }
func (f *shardedFake) RejoinAsReplica(int) (int, error)   { return 0, fmt.Errorf("fake: no replicas") }
func (f *shardedFake) ReplicaLag(int) uint64              { return 0 }
func (f *shardedFake) Epoch() uint64                      { return 0 }
func (f *shardedFake) Reshard(int) (*cluster.ReshardStats, error) {
	return nil, fmt.Errorf("fake: cannot reshard")
}

// RestartShard reloads the shard's snapshot, then replays its WAL suffix.
func (f *shardedFake) RestartShard(shard int) (int, error) { return f.shards[shard].Restart() }

func (f *shardedFake) ShardFingerprint(ctx context.Context, shard int) ([]byte, error) {
	s := f.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.killed {
		return nil, fmt.Errorf("fake: shard killed")
	}
	return canonicalEvents(s.events), nil
}

// scenarioFixture is a small but real universe for runner tests.
func scenarioFixture() Scenario {
	return Scenario{
		Name:     "fake-lifecycle",
		Universe: UniverseConfig{Users: 30, Items: 20, Ratings: 400, Seed: 5},
		TopN:     5,
		Seed:     17,
	}
}

// TestRunnerFullLifecycle drives every phase kind through fake systems and
// checks the sequencing, the shadow bookkeeping and the recovery equivalence.
func TestRunnerFullLifecycle(t *testing.T) {
	var systems []*fakeSystem
	// Checkpoint cadence 45 with 30-event batches: checkpoint at 60 applied
	// events, leaving a 40-event WAL suffix for the recovery to replay.
	r := &Runner{
		NewSystem: func() System {
			f := newFake(t, 45)
			systems = append(systems, f)
			return f
		},
	}
	sc := scenarioFixture()
	sc.Phases = []Phase{
		{Kind: PhaseTrain},
		{Kind: PhaseSave},
		{Kind: PhaseLoad},
		{Kind: PhaseServeUnderLoad, Requests: 60, Concurrency: 3},
		{Kind: PhaseIngestChurn, Events: 100, EventBatch: 30, Concurrency: 2},
		{Kind: PhaseKillAndRecover},
	}
	res, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(systems) != 2 {
		t.Fatalf("expected a primary and a shadow, got %d systems", len(systems))
	}
	primary, shadow := systems[0], systems[1]
	if len(res.Phases) != len(sc.Phases) {
		t.Fatalf("recorded %d phases, want %d", len(res.Phases), len(sc.Phases))
	}

	if !res.Phases[2].ParityChecked {
		t.Fatal("load phase did not record its parity check")
	}

	churn := res.Phases[4]
	if churn.EventsApplied != 100 {
		t.Fatalf("churn applied %d events, want 100", churn.EventsApplied)
	}
	if churn.ReaderRequests == 0 || churn.ReaderErrors != 0 {
		t.Fatalf("churn readers: %d requests, %d errors", churn.ReaderRequests, churn.ReaderErrors)
	}

	kr := res.Phases[5]
	if !kr.ParityChecked {
		t.Fatal("kill-and-recover did not record its equivalence check")
	}
	if kr.Replayed != 40 {
		t.Fatalf("kill-and-recover replayed %d events, want the 40-event WAL suffix", kr.Replayed)
	}
	pFp, _ := primary.Fingerprint(context.Background())
	sFp, _ := shadow.Fingerprint(context.Background())
	if string(pFp) != string(sFp) {
		t.Fatal("runner accepted diverged primary/shadow states")
	}
	wantCalls := []string{"train", "checkpoint", "restart", "kill", "restart"}
	if got := strings.Join(primary.calls, ","); got != strings.Join(wantCalls, ",") {
		t.Fatalf("primary lifecycle %v, want %v", primary.calls, wantCalls)
	}
}

// TestRunnerClusterLifecycle drives the multi-node phases through sharded
// fakes: ingest churn routed per shard, a mid-load shard kill, and a
// restart-shard recovery whose owned-user fingerprint must match a
// single-node shadow fed exactly the drilled shard's routed events.
func TestRunnerClusterLifecycle(t *testing.T) {
	const drilled = 1
	var primary *shardedFake
	var shadow *fakeSystem
	r := &Runner{
		// WAL-only durability: the restart must replay everything.
		NewSystem: func() System {
			primary = newShardedFake(t, 3, 0)
			return primary
		},
		NewShadow: func() System {
			shadow = newFake(t, 0)
			return shadow
		},
	}
	sc := scenarioFixture()
	target := drilled
	sc.Phases = []Phase{
		{Kind: PhaseTrain},
		{Kind: PhaseSave},
		{Kind: PhaseIngestChurn, Events: 90, EventBatch: 30, Concurrency: 2},
		{Kind: PhaseServeUnderLoad, Requests: 200, Concurrency: 2, KillShardMid: &target, MidLoadDelayMs: 1},
		{Kind: PhaseRestartShard, Shard: drilled},
		{Kind: PhaseIngestChurn, Events: 30, EventBatch: 10, Concurrency: 2},
	}
	res, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if shadow == nil {
		t.Fatal("no shadow was constructed")
	}
	shadow.mu.Lock()
	shadowEvents := len(shadow.events)
	for _, ev := range shadow.events {
		if primary.owner(ev.User) != drilled {
			t.Fatalf("shadow absorbed %q, owned by shard %d not %d", ev.User, primary.owner(ev.User), drilled)
		}
	}
	shadow.mu.Unlock()
	if shadowEvents == 0 {
		t.Fatal("shadow absorbed no events — the churn never routed anything to the drilled shard")
	}

	restart := res.Phases[4]
	if !restart.ParityChecked {
		t.Fatal("restart-shard did not assert shard recovery equivalence")
	}
	// The kill wiped the shard after the first churn's 90 events; WAL-only
	// durability means the restart replays exactly the shard's slice of
	// them. The event stream is deterministic, so the expected slice can be
	// recomputed from the scenario's seed.
	u, err := NewUniverse(sc.Universe)
	if err != nil {
		t.Fatal(err)
	}
	wantReplayed := 0
	for _, ev := range u.EventStream(EventStreamConfig{Seed: sc.Seed}).NextBatch(90) {
		if primary.owner(ev.User) == drilled {
			wantReplayed++
		}
	}
	if wantReplayed == 0 {
		t.Fatal("fixture stream routes nothing to the drilled shard")
	}
	if restart.Replayed != wantReplayed {
		t.Fatalf("restart replayed %d events, want the shard's full %d-event WAL", restart.Replayed, wantReplayed)
	}
	if restart.Shard != drilled {
		t.Fatalf("restart phase recorded shard %d, want %d", restart.Shard, drilled)
	}
	if res.Phases[3].Load == nil {
		t.Fatal("mid-kill serve phase recorded no load result")
	}
	// The post-restart churn must have run error-free against the healed
	// cluster (an error would have failed the run).
	if res.Phases[5].EventsApplied != 30 {
		t.Fatalf("post-restart churn applied %d events, want 30", res.Phases[5].EventsApplied)
	}
}

// failoverFake is a replicated shardedFake with a hands-off "failure
// detector": KillShard leaves the shard's state serving (a warm replica masks
// the outage) and bumps the ring epoch promoteAfter later with no
// PromoteReplica call — what an await-promotion phase must observe. Every
// request is held for a moment, so a load lasts long enough to tell a
// promotion time from a load duration.
type failoverFake struct {
	*shardedFake
	promoteAfter time.Duration
	epoch        atomic.Uint64
}

func (f *failoverFake) Handler() (http.Handler, error) {
	h, err := f.shardedFake.Handler()
	if err != nil {
		return nil, err
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(4 * time.Millisecond)
		h.ServeHTTP(w, r)
	}), nil
}

func (f *failoverFake) KillShard(int) error {
	time.AfterFunc(f.promoteAfter, func() { f.epoch.Add(1) })
	return nil
}
func (f *failoverFake) NumReplicas() int { return 1 }
func (f *failoverFake) PromoteReplica(int) (uint64, error) {
	return 0, fmt.Errorf("fake: a hands-off drill must not promote by hand")
}
func (f *failoverFake) RejoinAsReplica(int) (int, error) { return 0, nil }
func (f *failoverFake) ReplicaLag(int) uint64            { return 0 }
func (f *failoverFake) Epoch() uint64                    { return f.epoch.Load() }

// TestRunnerMeasuresPromotionDuringLoad pins when the await-promotion
// stopwatch runs: from the mid-load kill to the first observed epoch bump,
// sampled while the load is still going — not from the kill to whenever the
// load returns and the await-promotion phase gets its turn.
func TestRunnerMeasuresPromotionDuringLoad(t *testing.T) {
	newRunner := func() *Runner {
		return &Runner{
			NewSystem: func() System {
				return &failoverFake{shardedFake: newShardedFake(t, 2, 0), promoteAfter: 30 * time.Millisecond}
			},
			NewShadow: func() System { return newFake(t, 0) },
		}
	}
	sc := scenarioFixture()
	drilled := 0
	sc.Phases = []Phase{
		{Kind: PhaseTrain},
		{Kind: PhaseIngestChurn, Events: 60, EventBatch: 30, Concurrency: 2},
		{Kind: PhaseServeUnderLoad, Requests: 160, Concurrency: 2, KillShardMid: &drilled, MidLoadDelayMs: 20},
		{Kind: PhaseAwaitPromotion, Shard: drilled},
	}
	res, err := newRunner().Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	load, await := res.Phases[2], res.Phases[3]
	loadMs := load.Load.DurationSec * 1000
	if load.Load.Errors != 0 || loadMs < 300 {
		t.Fatalf("load spanning the kill: %d errors over %.0fms, want a clean run of at least 300ms", load.Load.Errors, loadMs)
	}
	if await.Epoch != 1 || !await.ParityChecked {
		t.Fatalf("await-promotion recorded epoch %d, parity checked %v", await.Epoch, await.ParityChecked)
	}
	if await.PromotionMs < 30 || await.PromotionMs >= 200 {
		t.Fatalf("promotion_ms = %.1f across a %.0fms load: want the fake detector's 30ms, not the load duration", await.PromotionMs, loadMs)
	}

	// Nothing killed means nothing to wait for: a malformed scenario, not a
	// promotion window to sit out.
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseAwaitPromotion, Shard: drilled}}
	if _, err := newRunner().Run(context.Background(), sc); err == nil || !strings.Contains(err.Error(), "preceding kill") {
		t.Fatalf("await-promotion with no kill before it: %v", err)
	}
}

// TestRunnerClusterPhaseValidation: shard phases against single-node
// primaries and conflicting shard targets must be rejected.
func TestRunnerClusterPhaseValidation(t *testing.T) {
	ctx := context.Background()
	single := &Runner{NewSystem: func() System { return newFake(t, 0) }}
	sc := scenarioFixture()
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseKillShard, Shard: 0}}
	if _, err := single.Run(ctx, sc); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("kill-shard against a single-node primary: %v", err)
	}

	sharded := &Runner{NewSystem: func() System { return newShardedFake(t, 2, 0) }}
	sc = scenarioFixture()
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseKillShard, Shard: 0}, {Kind: PhaseRestartShard, Shard: 1}}
	if _, err := sharded.Run(ctx, sc); err == nil || !strings.Contains(err.Error(), "one shard") {
		t.Fatalf("conflicting shard targets: %v", err)
	}
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseRestartShard, Shard: 7}}
	if _, err := sharded.Run(ctx, sc); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseKillShard, Shard: 0}, {Kind: PhasePromoteReplica, Shard: 0}}
	if _, err := sharded.Run(ctx, sc); err == nil || !strings.Contains(err.Error(), "replicas") {
		t.Fatalf("promote-replica against an unreplicated cluster: %v", err)
	}
}

// TestRunnerEnablesIngestForWritingMix: a serve-under-load mix that sends
// writes is served, since a system ingests from Train on.
func TestRunnerEnablesIngestForWritingMix(t *testing.T) {
	r := &Runner{NewSystem: func() System { return newFake(t, 0) }}
	sc := scenarioFixture()
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseServeUnderLoad, Requests: 40, Concurrency: 2, Mix: LoadMix{Recommend: 1, Ingest: 1}}}
	res, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if load := res.Phases[1].Load; load.Endpoints["ingest"].Count == 0 || load.Rejected != 0 {
		t.Fatalf("writing mix: %+v, want ingest traffic served and nothing rejected", load)
	}
}

// TestFilterCanonical pins the fingerprint filter the shard parity check
// composes with.
func TestFilterCanonical(t *testing.T) {
	fp := []byte("alice\ti1,i2\nbob\ti3\ncarol\ti4")
	got := string(FilterCanonical(fp, func(u string) bool { return u != "bob" }))
	if got != "alice\ti1,i2\ncarol\ti4" {
		t.Fatalf("filtered fingerprint %q", got)
	}
	if out := FilterCanonical(nil, func(string) bool { return true }); len(out) != 0 {
		t.Fatalf("empty fingerprint filtered to %q", out)
	}
	if out := string(FilterCanonical(fp, func(string) bool { return false })); out != "" {
		t.Fatalf("reject-all filter left %q", out)
	}
}

// TestRunnerRejectsBadScenarios pins the validation paths.
func TestRunnerRejectsBadScenarios(t *testing.T) {
	r := &Runner{NewSystem: func() System { return newFake(t, 0) }}
	ctx := context.Background()
	sc := scenarioFixture()
	if _, err := r.Run(ctx, sc); err == nil {
		t.Fatal("scenario without phases accepted")
	}
	sc.Phases = []Phase{{Kind: PhaseSave}}
	if _, err := r.Run(ctx, sc); err == nil {
		t.Fatal("scenario not starting with train accepted")
	}
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseKind("explode")}}
	if _, err := r.Run(ctx, sc); err == nil {
		t.Fatal("unknown phase kind accepted")
	}
	if _, err := (&Runner{}).Run(ctx, scenarioFixture()); err == nil {
		t.Fatal("runner without a factory accepted")
	}
}

// TestRunnerDetectsBrokenParity ensures the load phase's parity assertion has
// teeth: a system whose reload diverges must fail the scenario.
func TestRunnerDetectsBrokenParity(t *testing.T) {
	r := &Runner{
		NewSystem: func() System { return &divergingSystem{fakeSystem{dir: t.TempDir()}} },
	}
	sc := scenarioFixture()
	sc.Phases = []Phase{{Kind: PhaseTrain}, {Kind: PhaseSave}, {Kind: PhaseLoad}}
	_, err := r.Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "parity") {
		t.Fatalf("broken parity not detected, err=%v", err)
	}
}

// divergingSystem corrupts its state on restart.
type divergingSystem struct{ fakeSystem }

func (d *divergingSystem) Restart() (int, error) {
	replayed, err := d.fakeSystem.Restart()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.events = append(d.events, serve.IngestEvent{User: "ghost", Item: "ghost", Value: 1})
	return replayed, err
}

// admittedFake wraps fakeSystem's handler with real admission control and
// metrics, mirroring the facade's middleware order: instrumentation outermost
// (sheds are counted), then admission, then the mux, with /metrics mounted.
// Every admitted request spends hold inside the handler, as real work would.
type admittedFake struct {
	fakeSystem
	cfg  admit.Config
	hold time.Duration
}

func (f *admittedFake) Handler() (http.Handler, error) {
	inner, err := f.fakeSystem.Handler()
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	ctrl := admit.New(f.cfg)
	ctrl.Register(reg)
	mux := http.NewServeMux()
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(f.hold)
		inner.ServeHTTP(w, r)
	}))
	mux.Handle("/metrics", reg.Handler())
	hm := obs.NewHTTPMetrics(reg, nil, nil, nil)
	return hm.Wrap(ctrl.Middleware(mux)), nil
}

// TestRunnerOverloadPhase drives the overload phase against an
// admission-limited system, once per gate: the load must shed without 5xx,
// the typed-429 probe must pass, and the mid-phase /metrics scrape must
// validate. A concurrency cap sheds only requests beyond the ones it holds,
// so its row passes only if the probe keeps more than one request in flight.
func TestRunnerOverloadPhase(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  admit.Config
		hold time.Duration
	}{
		{"rate-limit", admit.Config{RatePerSec: 1, Burst: 8}, 0},
		{"max-concurrent", admit.Config{MaxConcurrent: 2}, 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &Runner{
				NewSystem: func() System {
					return &admittedFake{fakeSystem: fakeSystem{dir: t.TempDir()}, cfg: tc.cfg, hold: tc.hold}
				},
			}
			sc := scenarioFixture()
			sc.Phases = []Phase{
				{Kind: PhaseTrain},
				{Kind: PhaseOverload, Requests: 150, Concurrency: 8},
			}
			res, err := r.Run(context.Background(), sc)
			if err != nil {
				t.Fatal(err)
			}
			pr := res.Phases[1]
			if pr.Load == nil {
				t.Fatal("overload phase recorded no load result")
			}
			if pr.Load.Errors != 0 {
				t.Fatalf("overload produced %d server-side errors", pr.Load.Errors)
			}
			if pr.Load.Shed == 0 {
				t.Fatalf("overload shed nothing against %+v", tc.cfg)
			}
			if !pr.MetricsValidated {
				t.Fatal("overload phase did not validate the /metrics scrape")
			}
		})
	}
}

// TestRunnerOverloadRequiresShedding gives the overload phase a system
// without admission control: the phase must fail rather than pass vacuously.
func TestRunnerOverloadRequiresShedding(t *testing.T) {
	r := &Runner{NewSystem: func() System { return newFake(t, 0) }}
	sc := scenarioFixture()
	sc.Phases = []Phase{
		{Kind: PhaseTrain},
		{Kind: PhaseOverload, Requests: 40, Concurrency: 4},
	}
	_, err := r.Run(context.Background(), sc)
	if err == nil || !strings.Contains(err.Error(), "shed nothing") {
		t.Fatalf("overload without admission control passed, err=%v", err)
	}
}

// TestCanonicalRecommendations pins the fingerprint serialization: sorted by
// external user key, items in rank order, stable across map iteration.
func TestCanonicalRecommendations(t *testing.T) {
	b := dataset.NewBuilder("c", 4)
	b.Add("u-b", "i-1", 5)
	b.Add("u-a", "i-2", 4)
	d := b.Build()
	recs := types.Recommendations{
		0: {1}, // u-b → i-2
		1: {0}, // u-a → i-1
	}
	got := string(CanonicalRecommendations(d, recs))
	want := "u-a\ti-1\nu-b\ti-2"
	if got != want {
		t.Fatalf("canonical form %q, want %q", got, want)
	}
	if again := string(CanonicalRecommendations(d, recs)); again != got {
		t.Fatal("canonical form is not stable")
	}
}
