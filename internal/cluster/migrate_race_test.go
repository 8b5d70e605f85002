package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ganc/internal/obs"
)

// TestMigrationApplierRacesConcurrentShippers is the exact-accounting half of
// the migration race suite: many users ship their histories to one
// destination concurrently, every user twice (the drain-pass replay a real
// reshard performs), with a chunk size that forces multi-chunk transfers.
// Under -race the applier's per-user serialization is exercised for real;
// afterward the accounting must be exact — every event applied exactly once,
// every user's cursor at the end of its history, per-user order preserved.
func TestMigrationApplierRacesConcurrentShippers(t *testing.T) {
	const users, perUser = 24, 17
	backend := &countingBackend{}
	ma := NewMigrationApplier(3, 2, backend)
	addr := migrateServer(t, ma)

	h := newHop(nil)
	defer h.Close()
	var wg sync.WaitGroup
	var applied atomic.Int64
	errs := make(chan error, users*2)
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("mover-%03d", u)
		history := userEvs(user, 1, perUser)
		for round := 0; round < 2; round++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n, err := shipUserHistory(h, addr, 3, 2, user, history, 5)
				if err != nil {
					errs <- err
					return
				}
				applied.Add(int64(n))
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly once: the duplicate shippers' acknowledgments and the applier's
	// own counter both land on users*perUser, never a multiple of it.
	if got := applied.Load(); got != users*perUser {
		t.Fatalf("shippers were acknowledged %d applied events, want %d", got, users*perUser)
	}
	if got := ma.EventsApplied(); got != users*perUser {
		t.Fatalf("EventsApplied = %d, want %d", got, users*perUser)
	}
	for u := 0; u < users; u++ {
		if user := fmt.Sprintf("mover-%03d", u); ma.Cursor(user) != perUser {
			t.Fatalf("%s's cursor stands at %d, want the end of its %d-event history", user, ma.Cursor(user), perUser)
		}
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if got := len(backend.events); got != users*perUser {
		t.Fatalf("backend holds %d events, want %d", got, users*perUser)
	}
	pos := make(map[string]int)
	for _, ev := range backend.events {
		pos[ev.User]++
		if int(ev.Value) != pos[ev.User] {
			t.Fatalf("user %q received position %d as its event %d (per-user order broken)", ev.User, int(ev.Value), pos[ev.User])
		}
	}
}

// TestRouterReshardRoutingRacesFlips is the router half of the race suite:
// readers resolve read and write targets while the coordinator flips moving
// users one by one and finally completes the transition. Invariants checked
// under -race: writes route by the next ring from beginReshard on; a read
// for a moving user lands on either its old or its new owner and never
// anywhere else, monotonically (once a reader sees the new owner, the flip
// has happened and stays); non-moving users never change owner; and the
// router's double-dispatch counter exactly matches the metric series and
// bounds the old-owner reads the readers observed.
func TestRouterReshardRoutingRacesFlips(t *testing.T) {
	keys := ringKeys(600)
	old, next := growRings(t, 2, 1)
	reg := obs.NewRegistry()
	rt, err := NewRouter(RouterConfig{Ring: old, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	moving := movedUsers(old, next, keys)
	if len(moving) == 0 {
		t.Fatal("fixture moved no users")
	}
	if _, err := rt.beginReshard(next, moving); err != nil {
		t.Fatal(err)
	}
	if rt.reshard.Load() == nil {
		t.Fatal("router does not report an in-flight reshard")
	}

	var oldReads atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	bad := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case bad <- fmt.Sprintf(format, args...):
		default:
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			flipped := make(map[string]bool)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := keys[(i*7+w*131)%len(keys)]
				mv, isMover := moving[u]
				if got := rt.writeTarget(u); got != next.Owner(u) {
					report("write for %q routed to %d, want next-ring owner %d", u, got, next.Owner(u))
					return
				}
				got := rt.readTarget(u)
				switch {
				case !isMover:
					if got != next.Owner(u) || got != old.Owner(u) {
						report("read for non-mover %q routed to %d (old %d, next %d)", u, got, old.Owner(u), next.Owner(u))
						return
					}
				case got == mv.From && !flipped[u]:
					oldReads.Add(1)
				case got == mv.To:
					flipped[u] = true // monotone: old owner must never reappear
				default:
					report("read for mover %q routed to %d (from %d, to %d, seen-flip %v)", u, got, mv.From, mv.To, flipped[u])
					return
				}
			}
		}(w)
	}

	// The coordinator: once the workers have read movers from their old
	// owners, flip every mover (twice — flips are idempotent), then complete.
	for oldReads.Load() == 0 && len(bad) == 0 {
		runtime.Gosched()
	}
	for u := range moving {
		rt.flipUser(u)
		rt.flipUser(u)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	if err := rt.completeReshard(); err != nil {
		t.Fatal(err)
	}
	if rt.reshard.Load() != nil {
		t.Fatal("router still reports a reshard after completion")
	}

	// Exact accounting: every old-owner read a worker observed went through
	// the router's counting branch and nothing else increments it, so the
	// counter, the metric series and the workers' observations all agree.
	dd := rt.doubleDispatches.Load()
	if oldReads.Load() == 0 {
		t.Fatal("no worker read a mover from its old owner; the accounting below would compare 0 with 0")
	}
	if dd != oldReads.Load() {
		t.Fatalf("router counted %d double-dispatches, workers observed %d old-owner reads", dd, oldReads.Load())
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatalf("registry failed strict parse: %v", err)
	}
	if v, ok := sc.Value("ganc_router_reshard_double_dispatches_total"); !ok || int64(v) != dd {
		t.Fatalf("metric counted %v double-dispatches (%v), router counted %d", v, ok, dd)
	}
	if v, ok := sc.Value("ganc_router_reshard_users_migrated_total"); !ok || int(v) != len(moving) {
		t.Fatalf("metric counted %v flipped users (%v), want %d (idempotent flips must count once)", v, ok, len(moving))
	}

	// After completion routing is plain next-ring ownership, no counting.
	for _, u := range keys {
		if got := rt.readTarget(u); got != next.Owner(u) {
			t.Fatalf("post-reshard read for %q routed to %d, want %d", u, got, next.Owner(u))
		}
	}
	if rt.doubleDispatches.Load() != dd {
		t.Fatal("post-reshard reads still count double-dispatches")
	}
}

// TestRouterReshardStateMachineRules pins the transition edges: begin
// requires a newer epoch and refuses a second transition, complete requires
// one in flight, abort reverts routing to the current ring.
func TestRouterReshardStateMachineRules(t *testing.T) {
	keys := ringKeys(200)
	old, next := growRings(t, 2, 5)
	rt, err := NewRouter(RouterConfig{Ring: old})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.beginReshard(old, nil); err == nil {
		t.Fatal("begin accepted a ring at the current epoch")
	}
	if err := rt.completeReshard(); err == nil {
		t.Fatal("complete accepted with no transition in flight")
	}
	moving := movedUsers(old, next, keys)
	if _, err := rt.beginReshard(next, moving); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.beginReshard(next, moving); err == nil {
		t.Fatal("begin accepted a second in-flight transition")
	}
	rt.abortReshard()
	if rt.reshard.Load() != nil {
		t.Fatal("abort left the transition in flight")
	}
	for _, u := range keys {
		if got := rt.readTarget(u); got != old.Owner(u) {
			t.Fatalf("post-abort read for %q routed to %d, want the current ring's %d", u, got, old.Owner(u))
		}
		if got := rt.writeTarget(u); got != old.Owner(u) {
			t.Fatalf("post-abort write for %q routed to %d, want the current ring's %d", u, got, old.Owner(u))
		}
	}
}
