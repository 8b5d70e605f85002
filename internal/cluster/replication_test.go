package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/ingest"
)

// replicaServer mounts an applier-backed /replicate endpoint and returns its
// host:port address.
func replicaServer(t testing.TB, ra *ReplicaApplier) string {
	t.Helper()
	ts := newNodeServer(streamHandler(ShardSpace, ra))
	t.Cleanup(ts.Close)
	return ts.addr()
}

// TestShipperInlineShipAndWALCatchUp drives the shipper through both of its
// modes: inline post-commit shipping while in sync, and WAL-fed background
// catch-up after the replica was unreachable — ending with exact cursor
// agreement on both sides.
func TestShipperInlineShipAndWALCatchUp(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard-000.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	b := &countingBackend{}
	ra := NewReplicaApplier(0, 1, b)
	addr := replicaServer(t, ra)

	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, Log: wal, Replicas: []string{addr},
		shipTimeout: 2 * time.Second, retryBackoff: 5 * time.Millisecond, batchEvents: 3,
	})
	defer sp.Close()

	// Inline mode: each committed batch lands on the replica synchronously.
	commit := func(n int) {
		t.Helper()
		batch := evs(int(wal.Seq())+1, n)
		first := wal.Seq() + 1
		if _, err := wal.Append(batch); err != nil {
			t.Fatal(err)
		}
		sp.Commit(first, batch)
	}
	commit(4)
	commit(2)
	if got := b.Seq(); got != 6 {
		t.Fatalf("replica cursor %d after inline ships, want 6", got)
	}
	if lag := sp.MaxLag(); lag != 0 {
		t.Fatalf("lag %d while in sync", lag)
	}

	// Catch-up mode: the primary commits while the replica's applier refuses
	// (simulated outage), then the WAL loop re-feeds it after recovery.
	b.setFail(errors.New("replica down"))
	commit(5) // fails inline → flips to catch-up
	commit(3) // already in catch-up mode: queued for the background loop
	if head := sp.Head(); head != 14 {
		t.Fatalf("committed head %d, want 14", head)
	}
	st := sp.Status()
	if len(st.Replicas) != 1 || st.Replicas[0].InSync {
		t.Fatalf("replica not flipped to catch-up: %+v", st.Replicas)
	}
	b.setFail(nil)
	if err := sp.WaitSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.Seq(); got != 14 {
		t.Fatalf("replica cursor %d after catch-up, want 14", got)
	}
	st = sp.Status()
	if !st.Replicas[0].InSync || st.Replicas[0].AckedSeq != 14 || st.Replicas[0].LagEvents != 0 {
		t.Fatalf("post-catch-up status: %+v", st.Replicas[0])
	}

	// Exactly-once across both modes: values 1..14, in order, no re-applies
	// despite the failed inline ships being retried from the WAL.
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) != 14 {
		t.Fatalf("replica applied %d events, want 14", len(b.events))
	}
	for i, ev := range b.events {
		if ev.Value != float64(i+1) {
			t.Fatalf("event %d has value %v, want %d", i, ev.Value, i+1)
		}
	}
}

// TestShipperResyncAdoptsReplicaCursor: a shipper booted with a wrong
// positional guess (primary restart) converges after one Resync heartbeat —
// ahead-guesses rewind to the replica's answer, behind-guesses catch up from
// the WAL.
func TestShipperResyncAdoptsReplicaCursor(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard-000.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	all := evs(1, 10)
	if _, err := wal.Append(all); err != nil {
		t.Fatal(err)
	}

	// The replica already holds 4 of the 10 events.
	b := &countingBackend{}
	ra := NewReplicaApplier(0, 1, b)
	if _, err := ra.Apply(context.Background(), &Chunk{Shard: 0, Epoch: 1, First: 1, Head: 4, Events: all[:4]}); err != nil {
		t.Fatal(err)
	}
	addr := replicaServer(t, ra)

	// The restarted primary assumes the replica is current (StartSeq 10).
	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, Log: wal, Replicas: []string{addr},
		StartSeq: 10, retryBackoff: 5 * time.Millisecond,
	})
	defer sp.Close()
	if lag := sp.MaxLag(); lag != 0 {
		t.Fatalf("pre-resync guess should show no lag, got %d", lag)
	}
	sp.Resync()
	if err := sp.WaitSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.Seq(); got != 10 {
		t.Fatalf("replica cursor %d after resync catch-up, want 10", got)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, ev := range b.events {
		if ev.Value != float64(i+1) {
			t.Fatalf("event %d has value %v, want %d", i, ev.Value, i+1)
		}
	}
}

// TestShipperGapRewind: a replica that lost state (restart from an old
// snapshot) answers an inline ship with a gap; the shipper must rewind to the
// replica's cursor and re-feed the missing range from the WAL rather than
// erroring or skipping.
func TestShipperGapRewind(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard-000.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	b := &countingBackend{}
	ra := NewReplicaApplier(0, 1, b)
	addr := replicaServer(t, ra)

	// The primary believes the replica is at 6 (it is actually at 0): the
	// durable history is already in the WAL, and the next commit ships a
	// batch starting at 7 — a gap from the replica's point of view.
	if _, err := wal.Append(evs(1, 6)); err != nil {
		t.Fatal(err)
	}
	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, Log: wal, Replicas: []string{addr},
		StartSeq: 6, retryBackoff: 5 * time.Millisecond, batchEvents: 4,
	})
	defer sp.Close()

	batch := evs(7, 2)
	if _, err := wal.Append(batch); err != nil {
		t.Fatal(err)
	}
	sp.Commit(7, batch)
	if err := sp.WaitSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := b.Seq(); got != 8 {
		t.Fatalf("replica cursor %d after gap rewind, want 8", got)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) != 8 {
		t.Fatalf("replica applied %d events, want 8 (no skips, no re-applies)", len(b.events))
	}
	for i, ev := range b.events {
		if ev.Value != float64(i+1) {
			t.Fatalf("event %d has value %v, want %d", i, ev.Value, i+1)
		}
	}
}

// TestShipperCommitNeverBlocksOnDeadReplica: a primary whose replica is
// unreachable keeps committing — Commit flips the replica to catch-up mode
// and returns; it must not propagate the failure or hang.
func TestShipperCommitNeverBlocksOnDeadReplica(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard-000.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	// A dead address: a closed listener refuses instantly.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()

	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, Log: wal, Replicas: []string{deadAddr},
		shipTimeout: 200 * time.Millisecond, retryBackoff: 10 * time.Millisecond,
	})
	defer sp.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := evs(1, 3)
		if _, err := wal.Append(batch); err != nil {
			t.Error(err)
			return
		}
		sp.Commit(1, batch)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Commit blocked on a dead replica")
	}
	st := sp.Status()
	if len(st.Replicas) != 1 || st.Replicas[0].InSync || st.Replicas[0].Error == "" {
		t.Fatalf("dead replica not reported: %+v", st.Replicas)
	}
	if lag := sp.MaxLag(); lag != 3 {
		t.Fatalf("lag %d with a dead replica, want 3", lag)
	}
}

// TestShipperKeepsUnansweredReplicaOutOfSync: with nothing to ship, a
// replica that did not answer Resync's heartbeat is not reported in sync —
// the catch-up loop heartbeats it, the backoff apart, and only its first
// answer puts it back in sync.
func TestShipperKeepsUnansweredReplicaOutOfSync(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	replica := streamHandler(ShardSpace, NewReplicaApplier(0, 1, &countingBackend{}))
	ts := newNodeServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		replica.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, Replicas: []string{ts.addr()},
		shipTimeout: time.Second, retryBackoff: 2 * time.Millisecond,
	})
	defer sp.Close()

	sp.Resync()
	time.Sleep(50 * time.Millisecond) // many backoffs of the catch-up loop
	if st := sp.Status().Replicas[0]; st.InSync || st.Error == "" {
		t.Fatalf("a replica that answered nothing is reported %+v, want out of sync with its error", st)
	}
	down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for st := sp.Status().Replicas[0]; !st.InSync || st.Error != ""; st = sp.Status().Replicas[0] {
		if time.Now().After(deadline) {
			t.Fatalf("the replica answers again but is still reported %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShipperHandlesHostileReplicaAnswers: a "replica" that answers with
// attacker-controlled statuses and bodies must only ever produce errors on
// the primary — never a panic, never a cursor moving on garbage.
func TestShipperHandlesHostileReplicaAnswers(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "shard-000.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	batch := evs(1, 2)
	if _, err := wal.Append(batch); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		status int
		body   string
	}{
		{"garbage-200", http.StatusOK, "][ not json"},
		{"empty-500", http.StatusInternalServerError, ""},
		{"huge-answer", http.StatusOK, strings.Repeat("x", 2<<20)},
		{"teapot", http.StatusTeapot, `{"cursor": 99999}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hostile := newNodeServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer hostile.Close()
			sp := NewShipper(ShipperConfig{
				Shard: 0, Epoch: 1, Log: wal,
				Replicas:    []string{hostile.addr()},
				shipTimeout: time.Second, retryBackoff: 5 * time.Millisecond,
			})
			defer sp.Close()
			sp.Commit(1, batch)
			st := sp.Status()
			if st.Replicas[0].InSync {
				t.Fatalf("hostile answer %q left the replica in sync", tc.name)
			}
			if tc.name == "teapot" && st.Replicas[0].AckedSeq != 0 {
				t.Fatalf("refusal body moved the acked cursor: %+v", st.Replicas[0])
			}
		})
	}
}
