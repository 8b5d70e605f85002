package ganc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
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
	dead := c.shards[0].replicas[0]
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
	if records, err := countRecords(dead.walPath); err != nil || records != 60 {
		t.Fatalf("rejoined log holds %d records (%v), want all 60", records, err)
	}
	primary := c.shards[0].primary
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

// countRecords counts a write-ahead log's committed records.
func countRecords(path string) (int, error) {
	n := 0
	counts, err := walUserCounts(path, nil)
	for _, c := range counts {
		n += int(c)
	}
	return n, err
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
