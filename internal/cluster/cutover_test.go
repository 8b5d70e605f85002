package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// fabric is an in-memory network: an http.RoundTripper that answers each
// request from the http.Handler registered under the request's host — no
// socket, no goroutine. It plugs into the Client field every sender in this
// package already takes. A host nobody registered refuses the connection.
type fabric map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (f fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := f[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("fabric: connection refused: %s", req.URL.Host)
	}
	if req.Body == nil {
		req = req.Clone(req.Context())
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func (f fabric) client() *http.Client { return &http.Client{Transport: f} }

// memShard is one shard's primary on the fabric: a stream Node whose /migrate
// receiver applies into a write-ahead log of its own (client writes go
// straight to the log, as a router-delivered ingest would). onMigrate, when
// set, sees each migrated batch before it is logged.
type memShard struct {
	addr string
	node *Node
	log  *ingest.Log

	onMigrate func(events []serve.IngestEvent)
	migrated  []serve.IngestEvent
}

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
	hist, _, err := ingest.CollectUserEvents(s.log.Path(), func(u string) bool { return u == user })
	if err != nil {
		panic(err) // the rig's own log, written by the rig
	}
	var out []float64
	for _, ev := range hist[user] {
		out = append(out, ev.Value)
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
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		wal, err := ingest.OpenLog(filepath.Join(dir, fmt.Sprintf("shard-%d.wal", i)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		s := &memShard{addr: fmt.Sprintf("shard-%d.mem", i), log: wal}
		s.node = NewNode(i, 1, s, wal.Path())
		s.node.SetPrimary(true)
		rig.net[s.addr] = s.node.Mount(http.NotFoundHandler())
		rig.shards = append(rig.shards, s)
	}
	rt, err := NewRouter(RouterConfig{Ring: rig.ring(1, serving), Client: rig.net.client()})
	if err != nil {
		t.Fatal(err)
	}
	rig.rt = rt
	return rig
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

// nodes lists every shard's stream node, by ring index.
func (rig *cutoverRig) nodes() []*Node {
	out := make([]*Node, len(rig.shards))
	for i, s := range rig.shards {
		out[i] = s.node
	}
	return out
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

// guardOrder makes every shard check, on each migrated batch, the two
// orderings the cutover's exactly-once argument rests on: a user is never
// flipped before its new owner has acknowledged its history (a batch arriving
// for an already-flipped user at an owner that holds none of its events means
// the flip ran ahead of the ack; a drain pass tops up an owner that holds the
// rest), and nothing ships after the publish.
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
// router is out of the transition on the wanted ring, and every user's full
// sequence sits exactly once, in order, in its owner's log.
func (rig *cutoverRig) checkSettled(want *Ring, sent map[string][]float64) {
	rig.t.Helper()
	if rig.rt.Resharding() || rig.rt.Ring() != want {
		rig.t.Fatalf("router resharding=%v on epoch %d, want settled on epoch %d", rig.rt.Resharding(), rig.rt.Ring().Epoch(), want.Epoch())
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
// stats count exactly the movers and their events, the publish callback runs
// once — after the last shipped chunk, before the router leaves the
// transition — and every user ends exactly once at its owner.
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
	publishes := 0
	stats, err := rig.rt.Reshard(next, rig.nodes(), func() {
		publishes++
		published.Store(true)
		if !rig.rt.Resharding() || rig.rt.Ring() != old {
			t.Error("publish ran after the router had already left the transition")
		}
		for user := range sent {
			if rig.rt.readTarget(user) != next.Owner(user) {
				t.Errorf("user %q not yet cut over at the publish", user)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ReshardStats{FromShards: 2, ToShards: 3, Epoch: 2, UsersMoved: movers, UsersMigrated: movers, EventsMigrated: 3 * movers,
		DoubleDispatches: stats.DoubleDispatches, CutoverMs: stats.CutoverMs}
	if *stats != want || publishes != 1 || stats.CutoverMs <= 0 {
		t.Fatalf("stats %+v after %d publishes, want %+v after 1", *stats, publishes, want)
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

// TestReshardCutoverRefusals: a nil ring, a stale epoch, a node set that does
// not cover both rings and a ring with an unaddressed shard are refused, and
// the router stays settled on its ring.
func TestReshardCutoverRefusals(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	old := rig.rt.Ring()
	unaddressed, err := NewUniformRing(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, try := range map[string]func() (*ReshardStats, error){
		"nil-ring":      func() (*ReshardStats, error) { return rig.rt.Reshard(nil, rig.nodes(), t.FailNow) },
		"stale-epoch":   func() (*ReshardStats, error) { return rig.rt.Reshard(rig.ring(1, 3), rig.nodes(), t.FailNow) },
		"missing-nodes": func() (*ReshardStats, error) { return rig.rt.Reshard(rig.ring(2, 3), rig.nodes()[:2], t.FailNow) },
		"no-address":    func() (*ReshardStats, error) { return rig.rt.Reshard(unaddressed, rig.nodes(), t.FailNow) },
	} {
		if stats, err := try(); !errors.Is(err, ErrBadRing) || stats != nil {
			t.Fatalf("%s: answered %+v, %v; want an ErrBadRing refusal", name, stats, err)
		}
		if rig.rt.Resharding() || rig.rt.Ring() != old {
			t.Fatalf("%s left the router resharding=%v on epoch %d", name, rig.rt.Resharding(), rig.rt.Ring().Epoch())
		}
	}
}

// TestReshardCutoverShipFailureAborts breaks the destination after it has
// acknowledged a few users: the cutover gives up, the router is back on the
// old ring with no user left flipped and no publish — and what already landed
// is harmless, because a second attempt over the healed destination finds the
// cursors where the first left them and ends exactly-once all the same.
func TestReshardCutoverShipFailureAborts(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(90, 2)
	old, next := rig.rt.Ring(), rig.ring(2, 3)

	healthy := rig.net[rig.shards[2].addr]
	var chunks atomic.Int32
	rig.net[rig.shards[2].addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if chunks.Add(1) > 4 {
			http.Error(w, "disk on fire", http.StatusInternalServerError)
			return
		}
		healthy.ServeHTTP(w, r)
	})
	stats, err := rig.rt.Reshard(next, rig.nodes(), func() { t.Error("published an aborted reshard") })
	if err == nil || stats != nil {
		t.Fatalf("reshard over a failing destination answered %+v, %v", stats, err)
	}
	landed := len(rig.shards[2].migrated)
	if landed != 4*2 {
		t.Fatalf("%d events landed before the failure, want the 4 acknowledged users' 8", landed)
	}
	if rig.rt.Resharding() || rig.rt.Ring() != old {
		t.Fatalf("aborted reshard left the router resharding=%v on epoch %d", rig.rt.Resharding(), rig.rt.Ring().Epoch())
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
	stats, err = rig.rt.Reshard(next, rig.nodes(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsMigrated != 2*stats.UsersMoved-landed {
		t.Fatalf("second attempt applied %d events for %d movers after %d had landed; want only the rest",
			stats.EventsMigrated, stats.UsersMoved, landed)
	}
	rig.checkSettled(next, sent)
}

// TestReshardCutoverReturnToFormerOwner is A→B→A: users move to the added
// shard, take writes there, and move back when the ring shrinks. The former
// owner still holds their pre-grow history in its own log; its cursors are
// seeded from that log, so only what it lacks is applied — nothing twice.
func TestReshardCutoverReturnToFormerOwner(t *testing.T) {
	rig := newCutoverRig(t, 2, 3)
	sent := rig.seedHistories(60, 2)
	grown := rig.ring(2, 3)
	if _, err := rig.rt.Reshard(grown, rig.nodes(), func() {}); err != nil {
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
		s.node = NewNode(i, 2, s, s.log.Path())
		s.node.SetPrimary(true)
		rig.net[s.addr] = s.node.Mount(http.NotFoundHandler())
		s.migrated = nil
	}
	var published atomic.Bool
	rig.guardOrder(&published)
	shrunk := rig.ring(3, 2)
	stats, err := rig.rt.Reshard(shrunk, rig.nodes(), func() { published.Store(true) })
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
// first pass has read it. A drain pass must ship it before the publish — a
// publish ahead of the last pass would strand it at a shard that no longer
// owns the user.
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
	stats, err := rig.rt.Reshard(next, rig.nodes(), func() {
		published.Store(true)
		if got := rig.shards[2].history(late); len(got) != 3 {
			t.Errorf("published with %q's late event still at its old owner (new owner holds %v)", late, got)
		}
	})
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
	rig.net[rig.shards[2].addr] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Ack{Cursor: 0})
	})
	start := time.Now()
	stats, err := rig.rt.Reshard(rig.ring(2, 3), rig.nodes(), func() { t.Error("published an aborted reshard") })
	if err == nil || stats != nil {
		t.Fatalf("reshard over a stuck destination answered %+v, %v", stats, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("gave up only after %v", time.Since(start))
	}
	rig.checkSettled(old, sent)
}
