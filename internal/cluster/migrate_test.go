package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
)

// TestMigrationApplierCursorsPerEpoch: a user's cursor belongs to the
// transfer's epoch. A chunk from a newer epoch — the next reshard, or the
// retry of an aborted one, whose sender counted afresh what the node holds —
// starts the cursor over, and the older epoch is refused from then on.
func TestMigrationApplierCursorsPerEpoch(t *testing.T) {
	ctx := context.Background()
	backend := &countingBackend{}
	ma := NewMigrationApplier(0, 1, backend)
	if ack, err := ma.Apply(ctx, &Chunk{Shard: 0, Epoch: 1, Key: "bob", First: 1, Head: 3, Events: userEvs("bob", 1, 3)}); err != nil || ack.Cursor != 3 || !ack.Done {
		t.Fatalf("epoch-1 transfer answered %+v, %v", ack, err)
	}
	// The retry under epoch 2 ships only the two events the node lacked, as
	// positions 1 and 2 of its own transfer.
	ack, err := ma.Apply(ctx, &Chunk{Shard: 0, Epoch: 2, Key: "bob", First: 1, Head: 2, Events: userEvs("bob", 4, 2)})
	if err != nil || ack.Applied != 2 || ack.Cursor != 2 || !ack.Done || ma.Cursor("bob") != 2 {
		t.Fatalf("epoch-2 transfer answered %+v, %v; want both events applied at cursor 2", ack, err)
	}
	if _, err := ma.Apply(ctx, &Chunk{Shard: 0, Epoch: 1, Key: "bob", First: 4, Head: 4, Events: userEvs("bob", 4, 1)}); !errors.Is(err, ErrStreamEpoch) {
		t.Fatalf("a chunk of the older transfer answered %v, want ErrStreamEpoch", err)
	}
	if got := backend.values(); fmt.Sprint(got) != fmt.Sprint([]float64{1, 2, 3, 4, 5}) {
		t.Fatalf("backend holds %v, want each event once, in order", got)
	}
}

// migrateServer mounts an applier's /migrate endpoint on a test listener and
// returns its host:port (shipUserHistory prepends the scheme).
func migrateServer(t testing.TB, ma *MigrationApplier) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle(UserSpace.Route, streamHandler(UserSpace, ma))
	ts := newNodeServer(mux)
	t.Cleanup(ts.Close)
	return ts.addr()
}

// TestShipUserHistoryConverges: the sender chunks a history, converges on the
// destination's cursor — skipping what a lost acknowledgment already landed —
// and a full re-ship applies nothing.
func TestShipUserHistoryConverges(t *testing.T) {
	backend := &countingBackend{}
	ma := NewMigrationApplier(2, 3, backend)
	addr := migrateServer(t, ma)
	history := userEvs("carol", 6, 18)

	// The first 5 events landed, and their acknowledgment was lost.
	if _, err := ma.Apply(context.Background(), &Chunk{Shard: 2, Epoch: 3, Key: "carol", First: 1, Head: 18, Events: history[:5]}); err != nil {
		t.Fatal(err)
	}
	h := newHop(nil)
	defer h.Close()
	applied, err := shipUserHistory(h, addr, 2, 3, "carol", history, 4)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 13 {
		t.Fatalf("shipped %d events, want 13 (5 already landed)", applied)
	}
	if got := ma.Cursor("carol"); got != 18 {
		t.Fatalf("destination cursor %d, want 18", got)
	}

	// Idempotent re-ship: every chunk is a duplicate acknowledgment.
	applied, err = shipUserHistory(h, addr, 2, 3, "carol", history, 4)
	if err != nil || applied != 0 {
		t.Fatalf("re-ship applied %d events (%v), want 0", applied, err)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.events) != 18 {
		t.Fatalf("backend holds %d events, want 18", len(backend.events))
	}
	for i, ev := range backend.events {
		if ev.Value != float64(i+6) {
			t.Fatalf("event %d has value %v, want %d", i, ev.Value, i+6)
		}
	}
}

// ringKeys builds a deterministic user-key population for delta tests.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%04d", i)
	}
	return keys
}

// growRings builds the old ring over shards 0..n-1 at epoch e and the next
// ring over shards 0..n at epoch e+1 — the grow transition's two topologies.
func growRings(t testing.TB, n int, e uint64) (*Ring, *Ring) {
	t.Helper()
	infos := func(count int) []ShardInfo {
		out := make([]ShardInfo, count)
		for i := range out {
			out[i] = ShardInfo{ID: i, Addr: fmt.Sprintf("10.0.0.%d:9", i)}
		}
		return out
	}
	old, err := NewRing(e, 0, infos(n))
	if err != nil {
		t.Fatal(err)
	}
	next, err := NewRing(e+1, 0, infos(n+1))
	if err != nil {
		t.Fatal(err)
	}
	return old, next
}

// TestMovedUsersGrowIsMinimal: growing n→n+1 moves users only TO the added
// shard — no user is shuffled between surviving shards — and the delta is a
// strict subset of the population (consistent hashing, not mod-N).
func TestMovedUsersGrowIsMinimal(t *testing.T) {
	keys := ringKeys(4000)
	for _, n := range []int{2, 3, 5} {
		old, next := growRings(t, n, 1)
		moves := movedUsers(old, next, keys)
		if len(moves) == 0 || len(moves) == len(keys) {
			t.Fatalf("grow %d→%d moved %d of %d users", n, n+1, len(moves), len(keys))
		}
		// Roughly 1/(n+1) of the keyspace lands on the new shard; allow wide
		// slack but catch a mod-N-style full reshuffle.
		if len(moves) > len(keys)/2 {
			t.Fatalf("grow %d→%d moved %d of %d users — delta is not minimal", n, n+1, len(moves), len(keys))
		}
		for u, mv := range moves {
			if mv.To != n {
				t.Fatalf("grow %d→%d moved user %q to shard %d, want only moves to the added shard %d", n, n+1, u, mv.To, n)
			}
			if mv.From < 0 || mv.From >= n {
				t.Fatalf("user %q moved from out-of-range shard %d", u, mv.From)
			}
		}
	}
}

// TestMovedUsersShrinkIsMinimal: shrinking n+1→n moves users only FROM the
// removed shard; survivors keep every user they had.
func TestMovedUsersShrinkIsMinimal(t *testing.T) {
	keys := ringKeys(4000)
	for _, n := range []int{2, 3, 5} {
		// The shrink transition is the grow transition reversed.
		next, old := growRings(t, n, 1)
		moves := movedUsers(old, next, keys)
		if len(moves) == 0 {
			t.Fatalf("shrink %d→%d moved no users", n+1, n)
		}
		for u, mv := range moves {
			if mv.From != n {
				t.Fatalf("shrink %d→%d moved user %q from shard %d, want only moves from the removed shard %d", n+1, n, u, mv.From, n)
			}
			if mv.To < 0 || mv.To >= n {
				t.Fatalf("user %q moved to out-of-range shard %d", u, mv.To)
			}
		}
		// Exactness: the moved set is precisely the removed shard's users.
		for _, u := range keys {
			if old.Owner(u) == n {
				if _, ok := moves[u]; !ok {
					t.Fatalf("user %q owned by the removed shard %d is missing from the delta", u, n)
				}
			}
		}
	}
}

// TestRingEpochsAgreeOnNonMovers is the OwnerAmong-style property test: the
// epoch-E+1 ring, restricted to the epoch-E shard set, reproduces epoch E's
// assignment for EVERY user — the epoch number itself never perturbs
// ownership, so non-moving users agree across the transition by construction,
// not by luck. This is also the property the facade's OwnerAt shortcut (a
// throwaway ring with placeholder addresses) depends on.
func TestRingEpochsAgreeOnNonMovers(t *testing.T) {
	const n = 3
	keys := ringKeys(2000)
	old, next := growRings(t, n, 7)
	moves := movedUsers(old, next, keys)
	inOldSet := func(shard int) bool { return shard < n }
	for _, u := range keys {
		if _, moved := moves[u]; !moved {
			if of, nf := old.Owner(u), next.Owner(u); of != nf {
				t.Fatalf("non-moving user %q owned by %d at epoch %d but %d at epoch %d", u, of, old.Epoch(), nf, next.Epoch())
			}
		}
		// Collapsing the next ring onto the old shard set must reproduce the
		// old assignment exactly, movers included.
		if got, want := next.OwnerAmong(u, inOldSet), old.Owner(u); got != want {
			t.Fatalf("user %q: next ring restricted to the old shard set owns %d, old ring owns %d", u, got, want)
		}
	}
	// Same shard set, different epochs: identical assignment everywhere.
	sameSet, err := NewRing(99, 0, old.Shards())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range keys {
		if a, b := old.Owner(u), sameSet.Owner(u); a != b {
			t.Fatalf("user %q changes owner %d→%d on a pure epoch bump", u, a, b)
		}
	}
}
