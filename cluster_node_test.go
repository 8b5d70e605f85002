package ganc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ganc/internal/cluster"
	"ganc/internal/ingest"
)

// replicatedTestCluster boots a replicated cluster over the standard small
// fixture and a router test server.
func replicatedTestCluster(t *testing.T, opts ...ClusterOption) (*Cluster, *httptest.Server) {
	t.Helper()
	p, _ := clusterTestPipeline(t)
	c, err := NewCluster(p, append([]ClusterOption{WithClusterDir(t.TempDir())}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// killAndPromote fails shard i over to its replica.
func killAndPromote(t *testing.T, c *Cluster, i int) {
	t.Helper()
	if err := c.WaitForReplicaSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.KillShard(i); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Promote(i); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShrinkAfterPromotion: a shrink whose migration destinations are
// promoted ex-replicas must work — a promoted node is the same kind of node
// a booted primary is, /migrate included. 3 shards × 1 replica take history
// for 240 users, shards 0 and 1 fail over, the ring shrinks to 2, and every
// user's events must sit exactly once, in order, in the final owner's log.
func TestClusterShrinkAfterPromotion(t *testing.T) {
	c, ts := replicatedTestCluster(t, WithShards(3), WithReplicas(1))
	const users, perUser = 240, 3
	sent := make(map[string][]float64)
	var batch []IngestEvent
	for k := 0; k < perUser; k++ {
		for u := 0; u < users; u++ {
			user := fmt.Sprintf("mover-%03d", u)
			val := float64(u*10 + k)
			batch = append(batch, IngestEvent{User: user, Item: fmt.Sprintf("it-%d", (u+k)%17), Value: val})
			sent[user] = append(sent[user], val)
			if len(batch) == 80 {
				postIngest(t, ts.URL, batch)
				batch = nil
			}
		}
	}
	killAndPromote(t, c, 0)
	killAndPromote(t, c, 1)

	stats, err := c.Reshard(2)
	if err != nil {
		t.Fatalf("shrink after promotion: %v", err)
	}
	if stats.FromShards != 3 || stats.ToShards != 2 || stats.UsersMigrated == 0 || stats.EventsMigrated != stats.UsersMigrated*perUser {
		t.Fatalf("shrink stats %+v", stats)
	}
	for user, want := range sent {
		if got := ownedWALEvents(t, c, user); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("user %s: final owner %d holds %v, want exactly %v", user, c.OwnerShard(user), got, want)
		}
	}
	// The promoted primaries keep taking writes on the shrunk ring.
	postIngest(t, ts.URL, []IngestEvent{{User: "mover-000", Item: "it-after", Value: -1}})
}

// TestClusterPromotedPrimaryResumesCheckpoints: replicas never checkpoint on
// their own, but a promoted one takes over the shard's checkpoint cadence —
// the shard snapshot's cursor keeps advancing after a failover.
func TestClusterPromotedPrimaryResumesCheckpoints(t *testing.T) {
	c, ts := replicatedTestCluster(t, WithShards(1), WithReplicas(1), WithClusterCheckpointEvery(10))
	ingest := func(from, n int) {
		t.Helper()
		for b := 0; b < n/10; b++ {
			evs := make([]IngestEvent, 10)
			for k := range evs {
				evs[k] = IngestEvent{User: fmt.Sprintf("u-%d", k), Item: "it", Value: float64(from + b*10 + k)}
			}
			postIngest(t, ts.URL, evs)
		}
	}
	snapCursor := func() uint64 {
		t.Helper()
		seq, err := shardSnapshotCursor(c.shards[0].snapPath)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	ingest(0, 30)
	if got := snapCursor(); got != 30 {
		t.Fatalf("snapshot cursor %d after 30 events at interval 10, want 30", got)
	}
	killAndPromote(t, c, 0)
	if got := snapCursor(); got != 30 {
		t.Fatalf("snapshot cursor moved to %d while only a replica was alive", got)
	}
	ingest(30, 60)
	if got := snapCursor(); got != 90 {
		t.Fatalf("snapshot cursor %d after 60 post-promotion events, want 90 (the promoted primary must checkpoint)", got)
	}
}

// TestClusterRejoinPullsLostWAL: a demoted ex-primary whose write-ahead log
// did not survive rejoins anyway — the records up to the snapshot cursor are
// pulled from the live primary over /replicate/tail, the rest arrives
// through the shipper's catch-up — and ends byte-identical to the primary.
func TestClusterRejoinPullsLostWAL(t *testing.T) {
	c, ts := replicatedTestCluster(t, WithShards(1), WithReplicas(1), WithClusterCheckpointEvery(10))
	ingest := func(from, n int) {
		t.Helper()
		evs := make([]IngestEvent, n)
		for k := range evs {
			evs[k] = IngestEvent{User: fmt.Sprintf("u-%d", k%7), Item: fmt.Sprintf("it-%d", k%5), Value: float64(from + k)}
		}
		postIngest(t, ts.URL, evs)
	}
	ingest(0, 25)
	killAndPromote(t, c, 0)
	ingest(25, 25) // checkpointed by the promoted primary: the snapshot is now ahead of everything the dead node ever logged
	dead := c.shards[0].node(c.ReplicaAddr(0, 0))
	if dead.live() {
		t.Fatal("the demoted primary's slot is not dead")
	}
	if err := os.Remove(dead.walPath); err != nil {
		t.Fatal(err)
	}
	replayed, err := c.RejoinAsReplica(0)
	if err != nil {
		t.Fatalf("rejoin with a lost log: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("rejoin replayed %d events past a snapshot cursor the pulled tail ends at", replayed)
	}
	ingest(50, 10) // the rejoined node must keep up with live commits too
	if err := c.WaitForReplicaSync(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if events, err := nodeLog(dead); err != nil || len(events) != 60 {
		t.Fatalf("rejoined log holds %d records (%v), want all 60", len(events), err)
	}
	primary := c.shards[0].node(c.ShardAddr(0))
	want, err := fingerprintPipeline(context.Background(), primary.node.pipe, primary.node.ing, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fingerprintPipeline(context.Background(), dead.node.pipe, dead.node.ing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("rejoined node's fingerprint (%d bytes) differs from the primary's (%d bytes)", len(got), len(want))
	}
}

// TestOpenShardNodeRefusesShortLog: a node restarted over the snapshot its
// primary checkpointed into, with a log of its own that ends before the
// snapshot's cursor, is refused at open — booting it would number its next
// events from the log's end and fork the shard's history. The primary's own
// log, which reaches the cursor, opens.
func TestOpenShardNodeRefusesShortLog(t *testing.T) {
	p, _ := clusterTestPipeline(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "shard-000.snap")
	if err := p.SaveShard(snap, ShardIdentity{ShardID: 0, NumShards: 1, RingEpoch: 1}); err != nil {
		t.Fatal(err)
	}
	open := func(wal string) (*ShardNode, error) {
		pipe, id, err := LoadShardEngine(snap)
		if err != nil {
			t.Fatal(err)
		}
		return OpenShardNode(pipe, id, wal, snap, 0)
	}
	primaryWAL := filepath.Join(dir, "primary.wal")
	primary, err := open(primaryWAL)
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.MakePrimary(nil); err != nil {
		t.Fatal(err)
	}
	evs := []IngestEvent{{User: "u-1", Item: "it-1", Value: 5}, {User: "u-2", Item: "it-2", Value: 4}}
	if _, err := primary.ing.Apply(context.Background(), evs); err != nil {
		t.Fatal(err)
	}
	if err := primary.ing.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	if node, err := open(filepath.Join(dir, "replica.wal")); !errors.Is(err, ingest.ErrShortLog) {
		if node != nil {
			node.Close()
		}
		t.Fatalf("a fresh log under a snapshot at event %d opened with %v, want ingest.ErrShortLog", len(evs), err)
	}
	node, err := open(primaryWAL)
	if err != nil {
		t.Fatalf("the primary's own log, which reaches the snapshot's cursor, was refused: %v", err)
	}
	node.Close()
}

// TestPromotedReplicaAcksUnderItsSnapshotQuorum: a replica opened from a
// snapshot split with write quorum 1 and promoted by a ring change that
// names one replica — and no quorum — ships under quorum 1, as its
// replication status reports, and its /info identity keeps the quorum at the
// new epoch; the same snapshot with no replica to ack is refused as a
// primary at boot.
func TestPromotedReplicaAcksUnderItsSnapshotQuorum(t *testing.T) {
	p, _ := clusterTestPipeline(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "shard-000.snap")
	if err := p.SaveShard(snap, ShardIdentity{ShardID: 0, NumShards: 1, RingEpoch: 1, WriteQuorum: 1}); err != nil {
		t.Fatal(err)
	}
	open := func(wal string) *ShardNode {
		t.Helper()
		pipe, id, err := LoadShardEngine(snap)
		if err != nil {
			t.Fatal(err)
		}
		node, err := OpenShardNode(pipe, id, filepath.Join(dir, wal), snap, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	if err := open("boot.wal").MakePrimary(nil); err == nil || !strings.Contains(err.Error(), "write quorum 1 outside [0, 0 replicas]") {
		t.Fatalf("MakePrimary with no replica under write quorum 1 answered %v", err)
	}

	replica := open("replica.wal")
	// The one replica the ring change names is a closed listener: the
	// promoted node ships to it, and nothing needs an answer here.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	body, _ := json.Marshal(cluster.RingChange{Shard: 0, Epoch: 2, NumShards: 1, Primary: true, Replicas: []string{dead}})
	rec := httptest.NewRecorder()
	replica.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, cluster.RingPath, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("the promotion answered %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	replica.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/health", nil))
	var health ServerHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if r := health.Replication; r == nil || r.Role != "primary" || r.WriteQuorum != 1 {
		t.Fatalf("the promoted replica reports replication %+v, want the primary role under write quorum 1", r)
	}
	rec = httptest.NewRecorder()
	replica.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	var info struct {
		Shard *ShardIdentity `json:"cluster_shard"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if want := (ShardIdentity{ShardID: 0, NumShards: 1, RingEpoch: 2, WriteQuorum: 1}); info.Shard == nil || *info.Shard != want {
		t.Fatalf("the promoted replica's /info identity is %+v, want %+v", info.Shard, want)
	}
}

// TestClusterEveryNodeSpeaksEveryStreamRoute: whatever way a node came to
// its role — booted as a primary or a replica, promoted, rejoined after a
// demotion, or added by a grow — /replicate, /migrate and /replicate/tail
// all answer a typed JSON refusal to a GET and to an empty POST, never the
// mux's plain-text 404: no route can be forgotten for a role.
func TestClusterEveryNodeSpeaksEveryStreamRoute(t *testing.T) {
	c, _ := replicatedTestCluster(t, WithShards(2), WithReplicas(1))
	nodes := map[string]string{
		"fresh primary": c.ShardAddr(1),
		"fresh replica": c.ReplicaAddr(1, 0),
	}
	killAndPromote(t, c, 0)
	nodes["promoted ex-replica"] = c.ShardAddr(0)
	if _, err := c.RejoinAsReplica(0); err != nil {
		t.Fatal(err)
	}
	nodes["rejoined ex-primary"] = c.ReplicaAddr(0, 0)
	if _, err := c.Reshard(3); err != nil {
		t.Fatal(err)
	}
	nodes["grown primary"] = c.ShardAddr(2)
	nodes["grown replica"] = c.ReplicaAddr(2, 0)

	for role, addr := range nodes {
		for _, route := range []string{"/replicate", "/migrate", "/replicate/tail"} {
			for _, method := range []string{http.MethodGet, http.MethodPost} {
				req, _ := http.NewRequest(method, "http://"+addr+route, strings.NewReader(""))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				var refusal struct{ Error, Code string }
				err = json.NewDecoder(resp.Body).Decode(&refusal)
				resp.Body.Close()
				if err != nil || resp.StatusCode == http.StatusNotFound || refusal.Error == "" || !strings.HasSuffix(refusal.Code, "_body") {
					t.Errorf("%s: %s %s answered %d %+v (%v), want a typed JSON refusal", role, method, route, resp.StatusCode, refusal, err)
				}
			}
		}
	}
}

// TestClusterAccessorsOutOfRange: the accessors that return an address, a
// version or a lag answer their documented zero value for a shard or replica
// the cluster does not have, as the error-returning calls refuse one.
func TestClusterAccessorsOutOfRange(t *testing.T) {
	const shards, replicas = 2, 1
	c, _ := replicatedTestCluster(t, WithShards(shards), WithReplicas(replicas))
	for _, tc := range []struct {
		name string
		i, r int
	}{
		{"negative shard", -1, 0},
		{"shard past the ring", shards, 0},
		{"replica past the shard", 0, replicas},
	} {
		if tc.r == 0 {
			if addr, version, lag := c.ShardAddr(tc.i), c.ShardVersion(tc.i), c.ReplicaLag(tc.i); addr != "" || version != 0 || lag != 0 {
				t.Errorf("%s: ShardAddr %q, ShardVersion %d, ReplicaLag %d; want the zero values", tc.name, addr, version, lag)
			}
		}
		if addr := c.ReplicaAddr(tc.i, tc.r); addr != "" {
			t.Errorf("%s: ReplicaAddr(%d, %d) = %q, want \"\"", tc.name, tc.i, tc.r, addr)
		}
	}
}
