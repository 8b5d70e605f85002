package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/ingest"
	"ganc/internal/obs"
	"ganc/internal/serve"
)

// fabric is an in-memory network: a dialer over net.Pipe for the Dial seam
// every hop in this package takes. The far end of each pipe answers the hop
// upgrade and runs the production frame server (serveHop) over the handler
// registered under the dialled address, looked up per frame. A host nobody
// registered, or a shard that is down, refuses the dial, as it does on a
// real network; taking a shard down also closes its open pipes.
type fabric map[string]http.Handler

// dial implements the Dial seam.
func (f fabric) dial(_ context.Context, _, addr string) (net.Conn, error) {
	h, ok := f[addr]
	s, isShard := h.(*memShard)
	near, far := net.Pipe()
	if !ok || isShard && !s.accept(far) {
		return nil, &net.OpError{Op: "dial", Net: "fabric", Err: fmt.Errorf("connection refused: %s", addr)}
	}
	go func() {
		br := bufio.NewReader(far)
		if _, err := http.ReadRequest(br); err != nil {
			far.Close()
			return
		}
		serveHop(far, br, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { f[addr].ServeHTTP(w, r) }))
	}()
	return near, nil
}

// hop is a hop over the fabric.
func (f fabric) hop() *hop { return newHop(f.dial) }

// memShard is one node on the fabric: a Node whose stream receivers apply
// into a write-ahead log of its own (client writes go straight to the log,
// as a router-delivered ingest would), mounted over a /health that reports
// the node's role and cursor. onMigrate, when set, sees each migrated batch
// before it is logged; rings records every ring change the node adopted,
// after onRing (when set) has had its say.
type memShard struct {
	addr    string
	node    *Node
	log     *ingest.Log
	handler http.Handler

	// mu guards down and the far ends of the pipes dialled to the node.
	mu    sync.Mutex
	down  bool
	pipes []net.Conn

	onMigrate func(events []serve.IngestEvent)
	migrated  []serve.IngestEvent
	onRing    func(RingChange) error
	rings     []RingChange
}

// accept records a pipe dialled to the node; false while the node is down.
func (s *memShard) accept(far net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		s.pipes = append(s.pipes, far)
	}
	return !s.down
}

// setDown takes the node down — its open pipes close and dials are refused —
// or brings it back.
func (s *memShard) setDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
	if down {
		for _, c := range s.pipes {
			c.Close()
		}
		s.pipes = nil
	}
}

// open builds the node over the shard's log at epoch, in the primary role or
// not, and mounts it; the adopt action records the change and flips the role.
func (s *memShard) open(shard int, epoch uint64, primary bool) {
	s.node = NewNode(shard, epoch, s, s.log, func(c RingChange) error {
		if s.onRing != nil {
			if err := s.onRing(c); err != nil {
				return err
			}
		}
		s.rings = append(s.rings, c)
		if c.Primary {
			s.node.SetPrimary(true)
		}
		return nil
	})
	s.node.SetPrimary(primary)
	health := http.NewServeMux()
	health.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		st := s.node.Replica.Status()
		if s.node.Primary() {
			st = serve.ReplicationStatus{Role: RolePrimary, AppliedSeq: s.Seq(), PrimarySeq: s.Seq()}
		}
		writeJSON(w, http.StatusOK, serve.HealthResponse{Status: "ok", Replication: &st})
	})
	s.handler = s.node.Mount(health)
}

// ServeHTTP implements http.Handler.
func (s *memShard) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Seq implements ReplicaBackend.
func (s *memShard) Seq() uint64 { return s.log.Seq() }

// Apply implements ReplicaBackend: the node's stream receivers apply through it.
func (s *memShard) Apply(_ context.Context, events []serve.IngestEvent) (serve.IngestResult, error) {
	s.migrated = append(s.migrated, events...)
	if s.onMigrate != nil {
		s.onMigrate(events)
	}
	seq, err := s.log.Append(events)
	return serve.IngestResult{Applied: len(events), Seq: seq}, err
}

// history lists the values of user's events in the shard's log, in log order.
func (s *memShard) history(user string) []float64 {
	events, err := s.log.ReadRange(0, s.log.Seq())
	if err != nil {
		panic(err) // the rig's own log, written by the rig
	}
	var out []float64
	for _, ev := range events {
		if ev.User == user {
			out = append(out, ev.Value)
		}
	}
	return out
}

// cutoverRig is n shard primaries on a fabric and a router over the first
// `serving` of them at epoch 1.
type cutoverRig struct {
	t      *testing.T
	net    fabric
	shards []*memShard
	rt     *Router
}

func newCutoverRig(t *testing.T, serving, n int) *cutoverRig {
	t.Helper()
	rig := &cutoverRig{t: t, net: fabric{}}
	for i := 0; i < n; i++ {
		rig.addNode(i, true)
	}
	rt, err := NewRouter(RouterConfig{Ring: rig.ring(1, serving), Dial: rig.net.dial})
	if err != nil {
		t.Fatal(err)
	}
	rig.rt = rt
	return rig
}

// addNode puts node number len(rig.shards), a node of the given shard at
// epoch 1, on the fabric.
func (rig *cutoverRig) addNode(shard int, primary bool) *memShard {
	rig.t.Helper()
	k := len(rig.shards)
	wal, err := ingest.OpenLog(filepath.Join(rig.t.TempDir(), fmt.Sprintf("node-%d.wal", k)))
	if err != nil {
		rig.t.Fatal(err)
	}
	rig.t.Cleanup(func() { wal.Close() })
	s := &memShard{addr: fmt.Sprintf("node-%d.mem", k), log: wal}
	s.open(shard, 1, primary)
	rig.net[s.addr] = s
	rig.shards = append(rig.shards, s)
	return s
}

// ring builds the ring over the first n shards at the given epoch.
func (rig *cutoverRig) ring(epoch uint64, n int) *Ring {
	rig.t.Helper()
	infos := make([]ShardInfo, n)
	for i := range infos {
		infos[i] = ShardInfo{ID: i, Addr: rig.shards[i].addr}
	}
	r, err := NewRing(epoch, 0, infos)
	if err != nil {
		rig.t.Fatal(err)
	}
	return r
}

// write delivers one client event for user to the shard the router's write
// path resolves right now, with the next value of the user's sequence.
func (rig *cutoverRig) write(sent map[string][]float64, user string) {
	rig.t.Helper()
	rig.writeTo(rig.rt.writeTarget(user), sent, user)
}

// writeTo delivers the user's next event to one shard's log.
func (rig *cutoverRig) writeTo(shard int, sent map[string][]float64, user string) {
	rig.t.Helper()
	v := float64(len(sent[user]) + 1)
	if _, err := rig.shards[shard].log.Append([]serve.IngestEvent{{User: user, Item: "it", Value: v}}); err != nil {
		rig.t.Fatal(err)
	}
	sent[user] = append(sent[user], v)
}

// onRing makes every node run fn on each ring change pushed to it — the
// commit of a reshard, observed where it lands.
func (rig *cutoverRig) onRing(fn func(RingChange)) {
	for _, s := range rig.shards {
		s.onRing = func(c RingChange) error { fn(c); return nil }
	}
}

// guardOrder makes every shard check, on each migrated batch, the two
// orderings the cutover's exactly-once argument rests on: a user is never
// flipped before its new owner has acknowledged its history (a batch arriving
// for an already-flipped user at an owner that holds none of its events means
// the flip ran ahead of the ack; a drain pass tops up an owner that holds the
// rest), and nothing ships after the ring push.
func (rig *cutoverRig) guardOrder(published *atomic.Bool) {
	for _, s := range rig.shards {
		s.onMigrate = func(events []serve.IngestEvent) {
			if published.Load() {
				rig.t.Errorf("user %q shipped after the ring was published", events[0].User)
			}
			rs := rig.rt.reshard.Load()
			if rs == nil {
				rig.t.Errorf("user %q shipped outside a transition", events[0].User)
				return
			}
			if mu, ok := rs.users[events[0].User]; ok && mu.flipped.Load() && len(s.history(events[0].User)) == 0 {
				rig.t.Errorf("user %q was flipped before its new owner held any of its history", events[0].User)
			}
		}
	}
}

// checkSettled asserts the end state of a finished or aborted reshard: the
// router is out of the transition on the wanted epoch and shard count, and
// every user's full sequence sits exactly once, in order, in its owner's log.
func (rig *cutoverRig) checkSettled(want *Ring, sent map[string][]float64) {
	rig.t.Helper()
	if got := rig.rt.Ring(); rig.rt.reshard.Load() != nil || got.Epoch() != want.Epoch() || got.NumShards() != want.NumShards() {
		rig.t.Fatalf("router resharding=%v on %d shards at epoch %d, want settled on %d at epoch %d",
			rig.rt.reshard.Load() != nil, got.NumShards(), got.Epoch(), want.NumShards(), want.Epoch())
	}
	for user, values := range sent {
		owner := want.Owner(user)
		if got := rig.rt.readTarget(user); got != owner {
			rig.t.Fatalf("reads for %q go to shard %d, want its owner %d", user, got, owner)
		}
		if got := rig.shards[owner].history(user); fmt.Sprint(got) != fmt.Sprint(values) {
			rig.t.Fatalf("user %q: owner %d holds %v, want exactly %v", user, owner, got, values)
		}
	}
}

// seedHistories writes perUser events for each of n users through the router's
// write path and returns what was sent.
func (rig *cutoverRig) seedHistories(n, perUser int) map[string][]float64 {
	sent := make(map[string][]float64)
	for k := 0; k < perUser; k++ {
		for u := 0; u < n; u++ {
			rig.write(sent, fmt.Sprintf("user-%03d", u))
		}
	}
	return sent
}

// TestReshardCutoverHappyPath grows 2→3 with history on both sources: the
// stats count exactly the movers and their events, every node of the next
// ring is pushed its place in it once — after the last shipped chunk, before
// the router leaves the transition — and every user ends exactly once at its
// owner.
func TestReshardCutoverHappyPath(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(90, 3)
	old, next := rig.rt.Ring(), rig.ring(2, 3)
	movers := 0
	for user := range sent {
		if old.Owner(user) != next.Owner(user) {
			movers++
		}
	}
	if movers == 0 || movers == len(sent) {
		t.Fatalf("fixture moves %d of %d users", movers, len(sent))
	}
	var published atomic.Bool
	rig.guardOrder(&published)
	rig.onRing(func(RingChange) {
		published.Store(true)
		if rig.rt.reshard.Load() == nil || rig.rt.Ring() != old {
			t.Error("a node was pushed the ring after the router had already left the transition")
		}
		for user := range sent {
			if rig.rt.readTarget(user) != next.Owner(user) {
				t.Errorf("user %q not yet cut over at the ring push", user)
			}
		}
	})
	stats, err := rig.rt.Reshard(next)
	if err != nil {
		t.Fatal(err)
	}
	want := ReshardStats{FromShards: 2, ToShards: 3, Epoch: 2, UsersMoved: movers, UsersMigrated: movers, EventsMigrated: 3 * movers,
		DoubleDispatches: stats.DoubleDispatches, CutoverMs: stats.CutoverMs}
	if *stats != want || stats.CutoverMs <= 0 {
		t.Fatalf("stats %+v, want %+v", *stats, want)
	}
	for i, s := range rig.shards {
		if got, want := fmt.Sprintf("%+v", s.rings), fmt.Sprintf("%+v", []RingChange{{Shard: i, Epoch: 2, NumShards: 3, Primary: true}}); got != want {
			t.Fatalf("shard %d adopted the ring changes %s, want %s", i, got, want)
		}
	}
	rig.checkSettled(next, sent)
	if got := len(rig.shards[2].migrated); got != 3*movers {
		t.Fatalf("the added shard applied %d migrated events, want %d", got, 3*movers)
	}
	// Reads served from an old owner during the window are the ones counted.
	if stats.DoubleDispatches != 0 {
		t.Fatalf("%d double dispatches with no reader during the window", stats.DoubleDispatches)
	}
}

// TestReshardCutoverRefusals: a nil ring, a stale epoch, a ring of the same
// shard count and a ring with an unaddressed shard are refused, the router
// stays settled on its ring, and no node is pushed a ring change.
func TestReshardCutoverRefusals(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	old := rig.rt.Ring()
	unaddressed, err := NewUniformRing(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, try := range map[string]func() (*ReshardStats, error){
		"nil-ring":    func() (*ReshardStats, error) { return rig.rt.Reshard(nil) },
		"stale-epoch": func() (*ReshardStats, error) { return rig.rt.Reshard(rig.ring(1, 3)) },
		"same-count":  func() (*ReshardStats, error) { return rig.rt.Reshard(rig.ring(2, 2)) },
		"no-address":  func() (*ReshardStats, error) { return rig.rt.Reshard(unaddressed) },
	} {
		if stats, err := try(); !errors.Is(err, ErrBadRing) || stats != nil {
			t.Fatalf("%s: answered %+v, %v; want an ErrBadRing refusal", name, stats, err)
		}
		if rig.rt.reshard.Load() != nil || rig.rt.Ring() != old {
			t.Fatalf("%s left the router resharding=%v on epoch %d", name, rig.rt.reshard.Load() != nil, rig.rt.Ring().Epoch())
		}
		for _, s := range rig.shards {
			if len(s.rings) != 0 {
				t.Fatalf("%s pushed %s the ring changes %+v", name, s.addr, s.rings)
			}
		}
	}
}

// TestReshardCutoverShipFailureAborts breaks the destination after it has
// acknowledged a few users: the cutover gives up, the router is back on the
// old ring with no user left flipped and no ring pushed — and what already
// landed is harmless, because a second attempt over the healed destination
// runs under a newer epoch, reads what landed in the destination's log as
// held, and ends exactly-once all the same.
func TestReshardCutoverShipFailureAborts(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(90, 2)
	old, next := rig.rt.Ring(), rig.ring(2, 3)

	healthy := rig.net[rig.shards[2].addr]
	var chunks atomic.Int32
	rig.net[rig.shards[2].addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == UserSpace.Route && chunks.Add(1) > 4 {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
			return
		}
		healthy.ServeHTTP(w, r)
	})
	rig.onRing(func(RingChange) { t.Error("pushed the ring of an aborted reshard") })
	stats, err := rig.rt.Reshard(next)
	if err == nil || stats != nil {
		t.Fatalf("reshard over a failing destination answered %+v, %v", stats, err)
	}
	landed := len(rig.shards[2].migrated)
	if landed != 4*2 {
		t.Fatalf("%d events landed before the failure, want the 4 acknowledged users' 8", landed)
	}
	if rig.rt.reshard.Load() != nil || rig.rt.Ring() != old {
		t.Fatalf("aborted reshard left the router resharding=%v on epoch %d", rig.rt.reshard.Load() != nil, rig.rt.Ring().Epoch())
	}
	for user := range sent {
		if got := rig.rt.readTarget(user); got != old.Owner(user) {
			t.Fatalf("user %q still reads from shard %d after the abort, want its old owner %d", user, got, old.Owner(user))
		}
		if got := rig.rt.writeTarget(user); got != old.Owner(user) {
			t.Fatalf("user %q still writes to shard %d after the abort, want its old owner %d", user, got, old.Owner(user))
		}
	}

	rig.net[rig.shards[2].addr] = healthy
	rig.onRing(func(RingChange) {})
	stats, err = rig.rt.Reshard(next)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsMigrated != 2*stats.UsersMoved-landed || stats.Epoch != 3 {
		t.Fatalf("second attempt applied %d events for %d movers after %d had landed, at epoch %d; want only the rest, at epoch 3",
			stats.EventsMigrated, stats.UsersMoved, landed, stats.Epoch)
	}
	rig.checkSettled(rig.ring(3, 3), sent)
}

// TestReshardCutoverReturnToFormerOwner is A→B→A: users move to the added
// shard, take writes there, and move back when the ring shrinks. The former
// owner still holds their pre-grow history in its own log; its cursors are
// seeded from that log, so only what it lacks is applied — nothing twice.
func TestReshardCutoverReturnToFormerOwner(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(60, 2)
	grown := rig.ring(2, 3)
	if _, err := rig.rt.Reshard(grown); err != nil {
		t.Fatal(err)
	}
	returning := 0
	for user := range sent {
		rig.write(sent, user) // one more event each, at the grown ring's owner
		if grown.Owner(user) == 2 {
			returning++
		}
	}
	// Fresh stream nodes over the same logs, as after a restart: whatever the
	// destinations know about held prefixes must come from their logs.
	for i, s := range rig.shards {
		s.open(i, 2, true)
		s.migrated = nil
	}
	var published atomic.Bool
	rig.guardOrder(&published)
	rig.onRing(func(RingChange) { published.Store(true) })
	shrunk := rig.ring(3, 2)
	stats, err := rig.rt.Reshard(shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsersMoved != returning || stats.UsersMigrated != returning || stats.EventsMigrated != returning {
		t.Fatalf("shrink stats %+v, want %d users moved and migrated with one new event each", *stats, returning)
	}
	for _, s := range rig.shards[:2] {
		for _, ev := range s.migrated {
			if ev.Value != 3 {
				t.Fatalf("former owner re-applied %q's event %v; it already held events 1 and 2", ev.User, ev.Value)
			}
		}
	}
	rig.checkSettled(shrunk, sent)
}

// TestReshardCutoverDrainCatchesLateAppend: a write routed by the old ring
// just before the transition began reaches the old owner's log after the
// first pass has read it. A drain pass must ship it before the ring push — a
// push ahead of the last pass would strand it at a shard that no longer owns
// the user.
func TestReshardCutoverDrainCatchesLateAppend(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(90, 2)
	old, next := rig.rt.Ring(), rig.ring(2, 3)
	var published atomic.Bool
	rig.guardOrder(&published)
	guard := rig.shards[2].onMigrate
	var late string
	rig.shards[2].onMigrate = func(events []serve.IngestEvent) {
		guard(events)
		if late == "" {
			// The pass that ships this user has already read its old owner's
			// log; the append lands behind that read.
			late = events[0].User
			rig.writeTo(old.Owner(late), sent, late)
		}
	}
	rig.onRing(func(RingChange) {
		published.Store(true)
		if got := rig.shards[2].history(late); len(got) != 3 {
			t.Errorf("pushed the ring with %q's late event still at its old owner (new owner holds %v)", late, got)
		}
	})
	stats, err := rig.rt.Reshard(next)
	if err != nil {
		t.Fatal(err)
	}
	if late == "" || stats.EventsMigrated != 2*stats.UsersMoved+1 {
		t.Fatalf("stats %+v with late user %q, want every mover's 2 events plus the late one", *stats, late)
	}
	rig.checkSettled(next, sent)
}

// TestReshardCutoverNoProgressAborts: a destination that acknowledges chunks
// without ever advancing its cursor would loop a sender forever; the cutover
// gives up instead and reverts.
func TestReshardCutoverNoProgressAborts(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(30, 2)
	old := rig.rt.Ring()
	stuck := rig.shards[2]
	rig.net[stuck.addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == UserSpace.Route {
			writeJSON(w, http.StatusOK, Ack{Cursor: 0})
			return
		}
		stuck.ServeHTTP(w, r)
	})
	start := time.Now()
	rig.onRing(func(RingChange) { t.Error("pushed the ring of an aborted reshard") })
	stats, err := rig.rt.Reshard(rig.ring(2, 3))
	if err == nil || stats != nil {
		t.Fatalf("reshard over a stuck destination answered %+v, %v", stats, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("gave up only after %v", time.Since(start))
	}
	rig.checkSettled(old, sent)
}

// TestReshardGrowsRouterMetrics: a grow adds the new shard's per-shard
// series, so the first read routed to the added shard is counted.
func TestReshardGrowsRouterMetrics(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Ring: rig.ring(1, 2), Dial: rig.net.dial, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	rig.rt = rt
	next := rig.ring(2, 3)
	if _, err := rt.Reshard(next); err != nil {
		t.Fatal(err)
	}
	user := ""
	for u := 0; user == ""; u++ {
		if key := fmt.Sprintf("user-%03d", u); next.Owner(key) == 2 {
			user = key
		}
	}
	rt.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/recommend?user="+user, nil))
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	scrape, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := scrape.Value("ganc_router_fanout_total", obs.L("shard", "2")); !ok || v != 1 {
		t.Fatalf(`ganc_router_fanout_total{shard="2"} = %v (present %v) after one read for %s, which shard 2 owns; want 1`, v, ok, user)
	}
}

// newPromoteRig is one shard on the fabric — node 0 its primary, and nodes 1
// and 2 its replicas, node 2 two events ahead — behind a router whose
// detector samples every node once, at construction.
func newPromoteRig(t *testing.T) *cutoverRig {
	t.Helper()
	rig := &cutoverRig{t: t, net: fabric{}}
	rig.addNode(0, true)
	rig.addNode(0, false)
	if _, err := rig.addNode(0, false).log.Append([]serve.IngestEvent{{User: "u", Item: "a", Value: 1}, {User: "u", Item: "b", Value: 2}}); err != nil {
		t.Fatal(err)
	}
	rig.rt = rig.promoteRouter()
	return rig
}

// promoteRouter builds a router over the promote rig's shard at epoch 1.
func (rig *cutoverRig) promoteRouter() *Router {
	rig.t.Helper()
	s := rig.shards
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: s[0].addr, Replicas: []string{s[1].addr, s[2].addr}}})
	if err != nil {
		rig.t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Dial: rig.net.dial, DetectInterval: time.Hour})
	if err != nil {
		rig.t.Fatal(err)
	}
	rig.t.Cleanup(rt.Close)
	return rt
}

// TestPromotePushesNewPrimaryLast: with the primary down, Promote names the
// freshest replica, pushes the epoch-2 ring to the other replica first and
// to the new primary last — which ships to the rest of the shard — skips the
// unreachable old primary, and only then routes by the new ring.
func TestPromotePushesNewPrimaryLast(t *testing.T) {
	rig := newPromoteRig(t)
	old, fresh, stale := rig.shards[0], rig.shards[2], rig.shards[1]
	var order []string
	for _, s := range rig.shards {
		s.onRing = func(RingChange) error {
			order = append(order, s.addr)
			if rig.rt.Ring().Epoch() != 1 {
				t.Error("the router stored the ring before every push")
			}
			return nil
		}
	}
	old.setDown(true)
	epoch, err := rig.rt.Promote(0)
	if err != nil || epoch != 2 {
		t.Fatalf("Promote answered epoch %d, %v; want epoch 2", epoch, err)
	}
	if fmt.Sprint(order) != fmt.Sprint([]string{stale.addr, fresh.addr}) {
		t.Fatalf("pushed the ring to %v, want the other replica, then the new primary", order)
	}
	want := RingChange{Shard: 0, Epoch: 2, NumShards: 1, Primary: true, Replicas: []string{stale.addr, old.addr}}
	if got := fresh.rings; len(got) != 1 || fmt.Sprintf("%+v", got[0]) != fmt.Sprintf("%+v", want) || !fresh.node.Primary() || stale.node.Primary() {
		t.Fatalf("the new primary adopted %+v (primary %v, the other replica %v), want %+v", got, fresh.node.Primary(), stale.node.Primary(), want)
	}
	if info := rig.rt.Ring().Shard(0); rig.rt.Ring().Epoch() != 2 || info.Addr != fresh.addr {
		t.Fatalf("the router routes shard 0 to %s at epoch %d, want %s at 2", info.Addr, rig.rt.Ring().Epoch(), fresh.addr)
	}
}

// TestPromoteRefusals: a primary that still answers and a reshard in flight
// each refuse the promotion with ErrPromotionRefused, pushing nothing and
// leaving the ring as it was.
func TestPromoteRefusals(t *testing.T) {
	rig := newPromoteRig(t)
	for name, try := range map[string]func() (*Router, error){
		"primary answers": func() (*Router, error) { _, err := rig.rt.Promote(0); return rig.rt, err },
		"reshard in flight": func() (*Router, error) {
			rig.shards[0].setDown(true)
			defer rig.shards[0].setDown(false)
			rig.rt.reshard.Store(&reshardState{next: rig.rt.Ring()})
			defer rig.rt.reshard.Store(nil)
			_, err := rig.rt.Promote(0)
			return rig.rt, err
		},
	} {
		rt, err := try()
		if !errors.Is(err, ErrPromotionRefused) || rt.Ring().Epoch() != 1 {
			t.Fatalf("%s: Promote answered %v with the router at epoch %d; want ErrPromotionRefused at epoch 1", name, err, rt.Ring().Epoch())
		}
		for _, s := range rig.shards {
			if len(s.rings) != 0 {
				t.Fatalf("%s: pushed %s the ring changes %+v", name, s.addr, s.rings)
			}
		}
	}
}

// TestPromoteUnsampledPrimary: a primary the router's detector never
// sampled — it was down before the router started — is replaced all the
// same: the successor's write quorum is its own, so the router needs nothing
// it had to learn from the dead node.
func TestPromoteUnsampledPrimary(t *testing.T) {
	rig := newPromoteRig(t)
	old, fresh := rig.shards[0], rig.shards[2]
	old.setDown(true)
	rt := rig.promoteRouter() // its detector's only sample misses the primary
	if row, ok := rt.detector.Node(old.addr); !ok || row.Alive {
		t.Fatalf("the detector's view of the primary is %+v (sampled %v), want a miss", row, ok)
	}
	epoch, err := rt.Promote(0)
	if err != nil || epoch != 2 || rt.Ring().Shard(0).Addr != fresh.addr || !fresh.node.Primary() {
		t.Fatalf("Promote answered epoch %d, %v, routing to %s (primary %v); want %s at epoch 2",
			epoch, err, rt.Ring().Shard(0).Addr, fresh.node.Primary(), fresh.addr)
	}
}

// TestPromoteRetriesAfterFailedPush: when the new primary refuses its push,
// the router's ring is unchanged and the error is returned; the retry
// converges under the next epoch, which the replica that adopted the first
// attempt takes as newer.
func TestPromoteRetriesAfterFailedPush(t *testing.T) {
	rig := newPromoteRig(t)
	rig.shards[0].setDown(true)
	before := rig.rt.Ring()
	rig.shards[2].onRing = func(RingChange) error { return errors.New("disk on fire") }
	if epoch, err := rig.rt.Promote(0); err == nil || rig.rt.Ring() != before {
		t.Fatalf("Promote over a failing new primary answered epoch %d, %v, with the router at epoch %d", epoch, err, rig.rt.Ring().Epoch())
	}
	if len(rig.shards[1].rings) != 1 {
		t.Fatalf("the other replica adopted %+v before the new primary's push", rig.shards[1].rings)
	}
	rig.shards[2].onRing = nil
	if epoch, err := rig.rt.Promote(0); err != nil || epoch != 3 || rig.rt.Ring().Shard(0).Addr != rig.shards[2].addr {
		t.Fatalf("the retry answered epoch %d, %v, routing to %s; want node-2.mem at epoch 3", epoch, err, rig.rt.Ring().Shard(0).Addr)
	}
	if len(rig.shards[1].rings) != 2 || len(rig.shards[2].rings) != 1 || !rig.shards[2].node.Primary() {
		t.Fatalf("after the retry the nodes adopted %+v and %+v, want two changes and one", rig.shards[1].rings, rig.shards[2].rings)
	}
}

// TestPromoteAbortsWhenOldPrimaryReturns: an old primary that misses its
// re-probe but is back by the push refuses to be demoted; that refusal comes
// first, so no other node adopts the change, no node becomes primary, and
// the router keeps routing to the old primary.
func TestPromoteAbortsWhenOldPrimaryReturns(t *testing.T) {
	rig := newPromoteRig(t)
	old := rig.shards[0]
	rig.net[old.addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/health" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		old.ServeHTTP(w, r)
	})
	before := rig.rt.Ring()
	if epoch, err := rig.rt.Promote(0); err == nil || !strings.Contains(err.Error(), "ring_role") || rig.rt.Ring() != before {
		t.Fatalf("Promote past a returning primary answered epoch %d, %v, with the router at epoch %d; want a ring_role refusal at epoch 1",
			epoch, err, rig.rt.Ring().Epoch())
	}
	for _, s := range rig.shards[1:] {
		if len(s.rings) != 0 || s.node.Primary() {
			t.Fatalf("replica %s adopted %+v (primary %v) after the old primary refused", s.addr, s.rings, s.node.Primary())
		}
	}
	if !old.node.Primary() {
		t.Fatal("the old primary was demoted")
	}
}

// TestPromoteAfterSuccessorDiesMidPush: the chosen successor answers its
// probe and dies before its push, after the other replica adopted the change
// naming it primary. A second Promote chooses that other replica under a
// newer epoch, and the replica takes it.
func TestPromoteAfterSuccessorDiesMidPush(t *testing.T) {
	rig := newPromoteRig(t)
	old, stale, fresh := rig.shards[0], rig.shards[1], rig.shards[2]
	old.setDown(true)
	stale.onRing = func(RingChange) error { fresh.setDown(true); return nil }
	if _, err := rig.rt.Promote(0); err == nil || rig.rt.Ring().Epoch() != 1 {
		t.Fatalf("Promote over a successor dead at its push answered %v, with the router at epoch %d", err, rig.rt.Ring().Epoch())
	}
	stale.onRing = nil
	epoch, err := rig.rt.Promote(0)
	if err != nil || epoch != 3 || rig.rt.Ring().Shard(0).Addr != stale.addr || !stale.node.Primary() {
		t.Fatalf("the second Promote answered epoch %d, %v, routing to %s (primary %v); want %s at epoch 3",
			epoch, err, rig.rt.Ring().Shard(0).Addr, stale.node.Primary(), stale.addr)
	}
}

// TestPromoteAgainAfterNewPrimaryDies: a promoted primary that dies before
// the detector ever samples it can still be replaced.
func TestPromoteAgainAfterNewPrimaryDies(t *testing.T) {
	rig := newPromoteRig(t)
	old, stale, fresh := rig.shards[0], rig.shards[1], rig.shards[2]
	old.setDown(true)
	if epoch, err := rig.rt.Promote(0); err != nil || epoch != 2 {
		t.Fatalf("the first Promote answered epoch %d, %v", epoch, err)
	}
	fresh.setDown(true)
	epoch, err := rig.rt.Promote(0)
	if err != nil || epoch != 3 || rig.rt.Ring().Shard(0).Addr != stale.addr {
		t.Fatalf("the second Promote answered epoch %d, %v, routing to %s; want %s at epoch 3", epoch, err, rig.rt.Ring().Shard(0).Addr, stale.addr)
	}
	if got := stale.rings[len(stale.rings)-1]; !got.Primary || !stale.node.Primary() {
		t.Fatalf("the second successor adopted %+v (primary %v), want the primary's place", got, stale.node.Primary())
	}
}

// TestPromoteAfterGrow: a primary a reshard added can be replaced before the
// detector ever samples it. Shard 0's replica makes the router run a
// detector, whose only sample, at construction, predates shard 2.
func TestPromoteAfterGrow(t *testing.T) {
	rig := &cutoverRig{t: t, net: fabric{}}
	for i := 0; i < 3; i++ {
		rig.addNode(i, true)
	}
	replica0, replica2 := rig.addNode(0, false), rig.addNode(2, false)
	ring := func(epoch uint64, n int) *Ring {
		infos := []ShardInfo{
			{ID: 0, Addr: rig.shards[0].addr, Replicas: []string{replica0.addr}},
			{ID: 1, Addr: rig.shards[1].addr},
			{ID: 2, Addr: rig.shards[2].addr, Replicas: []string{replica2.addr}},
		}
		r, err := NewRing(epoch, 0, infos[:n])
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rt, err := NewRouter(RouterConfig{Ring: ring(1, 2), Dial: rig.net.dial, DetectInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if _, err := rt.Reshard(ring(2, 3)); err != nil {
		t.Fatal(err)
	}
	rig.shards[2].setDown(true)
	epoch, err := rt.Promote(2)
	if err != nil || epoch != 3 || rt.Ring().Shard(2).Addr != replica2.addr {
		t.Fatalf("promoting the grown shard answered epoch %d, %v, routing to %s; want %s at epoch 3", epoch, err, rt.Ring().Shard(2).Addr, replica2.addr)
	}
	if got := replica2.rings[len(replica2.rings)-1]; !got.Primary || !replica2.node.Primary() {
		t.Fatalf("the successor adopted %+v (primary %v), want the primary's place", got, replica2.node.Primary())
	}
}

// TestRouterReshardRoute drives the router's POST /admin/reshard over the
// fabric: a GET is refused, a malformed target and a grow that does not name
// its added shard are 400s that reach no node, a reshard Reshard refuses is a
// 409, a grow naming the added shard's node is published with its stats —
// a 200 even though node 0 refuses its commit push, with that refusal in the
// body's error — and a shrink needs no add=.
func TestRouterReshardRoute(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(60, 2)
	call := func(method, query string) (int, map[string]interface{}) {
		t.Helper()
		w := httptest.NewRecorder()
		rig.rt.Handler().ServeHTTP(w, httptest.NewRequest(method, "/admin/reshard"+query, nil))
		var body map[string]interface{}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s %s answered %d with an undecodable body %q", method, query, w.Code, w.Body)
		}
		return w.Code, body
	}
	for _, tc := range []struct {
		method, query string
		status        int
	}{
		{http.MethodGet, "?target=3", http.StatusMethodNotAllowed},
		{http.MethodPost, "", http.StatusBadRequest},
		{http.MethodPost, "?target=abc", http.StatusBadRequest},
		{http.MethodPost, "?target=0", http.StatusBadRequest},
		{http.MethodPost, "?target=3", http.StatusBadRequest},
		{http.MethodPost, "?target=1&add=" + rig.shards[2].addr, http.StatusBadRequest},
		{http.MethodPost, "?target=3&add=a:1,,b:2", http.StatusBadRequest},
		{http.MethodPost, "?target=2", http.StatusConflict},
		{http.MethodPost, "?target=3&add=nobody.mem", http.StatusConflict},
	} {
		if status, body := call(tc.method, tc.query); status != tc.status || body["error"] == "" {
			t.Fatalf("%s %s answered %d %v, want %d with an error", tc.method, tc.query, status, body, tc.status)
		}
	}
	for _, s := range rig.shards {
		if len(s.rings) != 0 || len(s.migrated) != 0 {
			t.Fatalf("a refused reshard reached %s: rings %+v, %d migrated events", s.addr, s.rings, len(s.migrated))
		}
	}
	rig.checkSettled(rig.ring(1, 2), sent)

	rig.shards[0].onRing = func(RingChange) error { return errors.New("disk on fire") }
	status, body := call(http.MethodPost, "?target=3&add="+rig.shards[2].addr)
	if msg, _ := body["error"].(string); status != http.StatusOK || body["to_shards"] != float64(3) || body["epoch"] != float64(2) ||
		!strings.Contains(msg, "refused the ring change to epoch 2") {
		t.Fatalf("the grow answered %d %v, want 200 with to_shards 3 at epoch 2 and node 0's refusal", status, body)
	}
	rig.checkSettled(rig.ring(2, 3), sent)
	rig.shards[0].onRing = nil
	status, body = call(http.MethodPost, "?target=2")
	if _, refused := body["error"]; status != http.StatusOK || body["to_shards"] != float64(2) || body["epoch"] != float64(3) || refused {
		t.Fatalf("the shrink answered %d %v, want 200 with to_shards 2 at epoch 3 and no error", status, body)
	}
	rig.checkSettled(rig.ring(3, 2), sent)
}
