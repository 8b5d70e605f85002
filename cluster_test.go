package ganc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ganc/internal/persist"
)

// clusterTestPipeline trains the cheapest snapshot-compatible pipeline on a
// small deterministic universe.
func clusterTestPipeline(t *testing.T) (*Pipeline, *Universe) {
	t.Helper()
	u, err := NewUniverse(UniverseConfig{Users: 50, Items: 30, Ratings: 700, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(u.Train(),
		WithBaseNamed("Pop"),
		WithPreferences(PreferenceTFIDF),
		WithTopN(5),
		WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	return p, u
}

// TestClusterMatchesSingleNode: a routed read through the cluster must
// return exactly what a single-node server over the same pipeline returns —
// sharding partitions the work, never the answers.
func TestClusterMatchesSingleNode(t *testing.T) {
	p, u := clusterTestPipeline(t)
	single, err := NewServer(p.Train(), p, 5)
	if err != nil {
		t.Fatal(err)
	}
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()

	c, err := NewCluster(p, WithShards(3), WithClusterDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(c.Handler())
	defer routerTS.Close()

	get := func(base, user string) (int, RecommendResponsePayload) {
		resp, err := http.Get(base + "/recommend?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out RecommendResponsePayload
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	users := u.Train().UserInterner()
	seenShards := make(map[int]int)
	for k := 0; k < u.Train().NumUsers(); k++ {
		user := users.Key(int32(k))
		seenShards[c.OwnerShard(user)]++
		wantStatus, want := get(singleTS.URL, user)
		gotStatus, got := get(routerTS.URL, user)
		if gotStatus != wantStatus {
			t.Fatalf("user %s: cluster status %d, single-node %d", user, gotStatus, wantStatus)
		}
		if fmt.Sprint(got.Items) != fmt.Sprint(want.Items) {
			t.Fatalf("user %s: cluster items %v != single-node %v", user, got.Items, want.Items)
		}
	}
	if len(seenShards) != 3 {
		t.Fatalf("users hit %d shards, want all 3: %v", len(seenShards), seenShards)
	}
}

// RecommendResponsePayload mirrors the serving layer's /recommend body for
// facade-level tests.
type RecommendResponsePayload struct {
	// User and Items echo the request's user and its list.
	User  string   `json:"user"`
	Items []string `json:"items"`
	// Error carries the inline failure, if any.
	Error string `json:"error,omitempty"`
}

// TestShardSnapshotRoundTrip pins the shard-scoped snapshot format: the
// identity, write quorum included, survives save/load, plain snapshots are
// refused by LoadShardEngine, and invalid identities are rejected at save
// time.
func TestShardSnapshotRoundTrip(t *testing.T) {
	p, _ := clusterTestPipeline(t)
	dir := t.TempDir()
	shardPath := dir + "/shard.snap"
	if err := p.SaveShard(shardPath, ShardIdentity{ShardID: 2, NumShards: 5, RingEpoch: 9, WriteQuorum: 2}); err != nil {
		t.Fatal(err)
	}
	sp, id, err := LoadShardEngine(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if id != (ShardIdentity{ShardID: 2, NumShards: 5, RingEpoch: 9, WriteQuorum: 2}) {
		t.Fatalf("identity round-tripped as %+v", id)
	}
	if got := sp.Shard(); got == nil || *got != id {
		t.Fatalf("pipeline carries identity %+v", got)
	}
	// A shard snapshot is still a valid plain snapshot...
	if _, err := LoadEngine(shardPath); err != nil {
		t.Fatalf("LoadEngine refused a shard snapshot: %v", err)
	}
	// ...but a plain snapshot is not a shard snapshot.
	plainPath := dir + "/plain.snap"
	if err := p.Save(plainPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadShardEngine(plainPath); err == nil {
		t.Fatal("LoadShardEngine accepted a snapshot without shard identity")
	}
	// The original pipeline must stay identity-free after SaveShard.
	if p.Shard() != nil {
		t.Fatalf("SaveShard leaked identity %+v into the source pipeline", p.Shard())
	}
	for _, bad := range []ShardIdentity{{ShardID: -1, NumShards: 3}, {ShardID: 3, NumShards: 3}, {ShardID: 0, NumShards: 0}, {NumShards: 1, WriteQuorum: -1}} {
		if err := p.SaveShard(dir+"/bad.snap", bad); err == nil {
			t.Fatalf("SaveShard accepted invalid identity %+v", bad)
		}
	}
}

// TestShardSnapshotWriteQuorum pins the write quorum's place in the shard
// identity beyond SaveShard's round trip: an ingestion checkpoint keeps it, a
// cluster section written before it existed loads as 0, and a negative one
// is refused on load.
func TestShardSnapshotWriteQuorum(t *testing.T) {
	p, _ := clusterTestPipeline(t)
	dir := t.TempDir()
	snap := filepath.Join(dir, "shard.snap")
	want := ShardIdentity{ShardID: 1, NumShards: 2, RingEpoch: 3, WriteQuorum: 2}
	if err := p.SaveShard(snap, want); err != nil {
		t.Fatal(err)
	}
	pipe, id, err := LoadShardEngine(snap)
	if err != nil {
		t.Fatal(err)
	}

	node, err := OpenShardNode(pipe, id, filepath.Join(dir, "node.wal"), snap, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.ing.Apply(context.Background(), []IngestEvent{{User: "u-1", Item: "it-1", Value: 5}}); err != nil {
		t.Fatal(err)
	}
	if err := node.ing.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if cp, id, err := LoadShardEngine(snap); err != nil || id != want || cp.Mark().Seq != 1 {
		t.Fatalf("the checkpoint loads as %+v, %v, want %+v at cursor 1", id, err, want)
	}

	// rewrite copies the snapshot with its cluster section replaced.
	rewrite := func(cluster interface{}) string {
		t.Helper()
		src, err := persist.Load(snap)
		if err != nil {
			t.Fatal(err)
		}
		var b persist.Builder
		for _, name := range src.Sections() {
			payload, err := src.Section(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == sectionCluster {
				b.AddGob(name, cluster)
			} else {
				b.Add(name, payload)
			}
		}
		path := filepath.Join(dir, "rewritten.snap")
		if err := b.Save(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	legacy := struct {
		ShardID, NumShards int
		RingEpoch          uint64
	}{1, 2, 3}
	if _, id, err := LoadShardEngine(rewrite(&legacy)); err != nil || id != (ShardIdentity{ShardID: 1, NumShards: 2, RingEpoch: 3}) {
		t.Fatalf("a cluster section without a write quorum loads as %+v, %v; want write quorum 0", id, err)
	}
	negative := want
	negative.WriteQuorum = -1
	if _, _, err := LoadShardEngine(rewrite(&negative)); err == nil || !strings.Contains(err.Error(), "invalid write quorum -1") {
		t.Fatalf("a cluster section with write quorum -1 loaded: %v", err)
	}
}

// TestClusterKillRestartShard: killing a shard turns its users' requests
// into typed 503s while other shards keep serving; restarting it restores
// identical answers and replays the WAL suffix of any ingested events.
func TestClusterKillRestartShard(t *testing.T) {
	p, u := clusterTestPipeline(t)
	c, err := NewCluster(p, WithShards(2), WithClusterDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	users := u.Train().UserInterner()
	victim := 1
	victimUser, otherUser := "", ""
	for k := 0; k < u.Train().NumUsers() && (victimUser == "" || otherUser == ""); k++ {
		key := users.Key(int32(k))
		if c.OwnerShard(key) == victim {
			if victimUser == "" {
				victimUser = key
			}
		} else if otherUser == "" {
			otherUser = key
		}
	}

	get := func(user string) (int, RecommendResponsePayload) {
		resp, err := http.Get(ts.URL + "/recommend?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out RecommendResponsePayload
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	_, before := get(victimUser)

	// Ingest a few events owned by the victim so the restart has a WAL
	// suffix to replay (no checkpoint cadence is configured).
	events := []IngestEvent{
		{User: victimUser, Item: "brand-new-item", Value: 5},
		{User: victimUser, Item: "brand-new-item-2", Value: 4},
	}
	body, _ := json.Marshal(map[string]interface{}{"events": events})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest answered %d", resp.StatusCode)
	}
	if v := c.ShardVersion(victim); v != 2 {
		t.Fatalf("victim shard version %d after one ingest batch, want 2", v)
	}
	_, afterIngest := get(victimUser)

	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	if status, _ := get(victimUser); status != http.StatusServiceUnavailable {
		t.Fatalf("dead shard's user answered %d, want 503", status)
	}
	if status, _ := get(otherUser); status != http.StatusOK {
		t.Fatalf("live shard's user answered %d during outage", status)
	}

	replayed, err := c.RestartShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(events) {
		t.Fatalf("restart replayed %d events, want %d", replayed, len(events))
	}
	status, recovered := get(victimUser)
	if status != http.StatusOK {
		t.Fatalf("restarted shard answered %d", status)
	}
	if fmt.Sprint(recovered.Items) != fmt.Sprint(afterIngest.Items) {
		t.Fatalf("post-restart answer %v != pre-kill answer %v (before ingest it was %v)",
			recovered.Items, afterIngest.Items, before.Items)
	}
	// Restart must not disturb double-kill protection.
	if _, err := c.RestartShard(victim); err == nil {
		t.Fatal("restarting a live shard succeeded")
	}
	if err := c.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.KillShard(victim); err == nil {
		t.Fatal("killing a dead shard succeeded")
	}
	if _, err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
}

// TestClusterIngestIsolation: events ingested through the router bump only
// the owning shard's engine generation and statistics.
func TestClusterIngestIsolation(t *testing.T) {
	p, u := clusterTestPipeline(t)
	c, err := NewCluster(p, WithShards(3), WithClusterDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	users := u.Train().UserInterner()
	target := c.OwnerShard(users.Key(0))
	events := []IngestEvent{{User: users.Key(0), Item: "fresh-item", Value: 5}}
	body, _ := json.Marshal(map[string]interface{}{"events": events})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest answered %d", resp.StatusCode)
	}
	for i := 0; i < c.NumShards(); i++ {
		want := 1
		if i == target {
			want = 2
		}
		if got := c.ShardVersion(i); got != want {
			t.Fatalf("shard %d at version %d after targeted ingest, want %d", i, got, want)
		}
	}
}
