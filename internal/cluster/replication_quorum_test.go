package cluster

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"ganc/internal/ingest"
)

// quorumRig stands up one primary WAL shipping to n real replica appliers,
// with a k-of-n write quorum.
func quorumRig(t *testing.T, n, k int, qTimeout time.Duration) (*ingest.Log, *Shipper, []*countingBackend) {
	t.Helper()
	walPath := filepath.Join(t.TempDir(), "quorum.wal")
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wal.Close() })
	backends := make([]*countingBackend, n)
	addrs := make([]string, n)
	for i := range backends {
		backends[i] = &countingBackend{}
		addrs[i] = replicaServer(t, NewReplicaApplier(0, 1, backends[i]))
	}
	sp := NewShipper(ShipperConfig{
		Shard: 0, Epoch: 1, WALPath: walPath,
		Replicas:    addrs,
		WriteQuorum: k, quorumTimeout: qTimeout,
		shipTimeout: 2 * time.Second, retryBackoff: 2 * time.Millisecond,
	})
	t.Cleanup(sp.Close)
	return wal, sp, backends
}

func TestQuorumCommitAdvancesDurabilityFrontier(t *testing.T) {
	wal, sp, backends := quorumRig(t, 2, 2, 2*time.Second)
	batch := evs(1, 4)
	if _, err := wal.Append(batch); err != nil {
		t.Fatal(err)
	}
	sp.Commit(1, batch)

	// Commit returned, so k=2 of 2 replicas acknowledged the head: the write
	// is already on every quorum member, no WaitSync needed.
	for i, b := range backends {
		if got := b.Seq(); got != 4 {
			t.Fatalf("replica %d cursor %d immediately after a quorum-acked commit, want 4", i, got)
		}
	}
	st := sp.Status()
	if st.WriteQuorum != 2 {
		t.Fatalf("status reports write quorum %d, want 2", st.WriteQuorum)
	}
	if st.QuorumAckedSeq != 4 {
		t.Fatalf("quorum-acked frontier %d, want 4", st.QuorumAckedSeq)
	}
	if st.QuorumTimeouts != 0 {
		t.Fatalf("%d quorum timeouts on a healthy pair, want 0", st.QuorumTimeouts)
	}
}

func TestQuorumFrontierIsKthLargestAck(t *testing.T) {
	// k=1 of 2: the frontier follows the freshest replica, not the laggard.
	wal, sp, backends := quorumRig(t, 2, 1, 2*time.Second)

	// Take replica 1 down; k=1 commits still succeed through replica 0.
	backends[1].mu.Lock()
	backends[1].failErr = errors.New("injected outage")
	backends[1].mu.Unlock()

	batch := evs(1, 3)
	if _, err := wal.Append(batch); err != nil {
		t.Fatal(err)
	}
	sp.Commit(1, batch)

	st := sp.Status()
	if st.QuorumAckedSeq != 3 {
		t.Fatalf("k=1 frontier %d with one live replica at 3, want 3", st.QuorumAckedSeq)
	}
	if got := backends[0].Seq(); got != 3 {
		t.Fatalf("live replica cursor %d, want 3", got)
	}

	// With k=2 semantics the same state would pin the frontier at the
	// laggard: kthLargest is the durability floor, not the ceiling.
	if got := kthLargest([]uint64{3, 0}, 2); got != 0 {
		t.Fatalf("kthLargest([3,0], 2) = %d, want 0", got)
	}
	if got := kthLargest([]uint64{3, 0}, 1); got != 3 {
		t.Fatalf("kthLargest([3,0], 1) = %d, want 3", got)
	}
}

func TestQuorumTimeoutDegradesToAsyncCatchUp(t *testing.T) {
	wal, sp, backends := quorumRig(t, 2, 2, 25*time.Millisecond)

	backends[1].mu.Lock()
	backends[1].failErr = errors.New("injected outage")
	backends[1].mu.Unlock()

	batch := evs(1, 2)
	if _, err := wal.Append(batch); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sp.Commit(1, batch) // must return after the quorum timeout, not block forever
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("quorum-degraded commit took %v", elapsed)
	}
	if n := sp.Status().QuorumTimeouts; n != 1 {
		t.Fatalf("recorded %d quorum timeouts, want 1", n)
	}

	// The outage heals; the background catch-up loop must still converge the
	// laggard and restore the quorum frontier without another commit.
	backends[1].mu.Lock()
	backends[1].failErr = nil
	backends[1].mu.Unlock()
	if err := sp.WaitSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := sp.Status(); st.QuorumAckedSeq != 2 {
		t.Fatalf("frontier %d after catch-up, want 2", st.QuorumAckedSeq)
	}
}
