package ganc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"ganc/internal/ingest"
)

// reshardTestCluster boots a cluster over the standard small fixture and a
// router test server.
func reshardTestCluster(t *testing.T, shards int) (*Cluster, *Universe, *httptest.Server) {
	t.Helper()
	p, u := clusterTestPipeline(t)
	c, err := NewCluster(p, WithShards(shards), WithClusterDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, u, ts
}

// postIngest sends one event batch through the router and fails the test on
// any non-200 answer.
func postIngest(t *testing.T, url string, events []IngestEvent) {
	t.Helper()
	body, _ := json.Marshal(map[string]interface{}{"events": events})
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest answered %d", resp.StatusCode)
	}
}

// ownedWALEvents reads the final owner's write-ahead log and returns the
// user's event values in log order.
func ownedWALEvents(t *testing.T, c *Cluster, user string) []float64 {
	t.Helper()
	owner := c.OwnerShard(user)
	hist, _, err := ingest.CollectUserEvents(c.shards[owner].primary.walPath, func(u string) bool { return u == user })
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, len(hist[user]))
	for _, ev := range hist[user] {
		out = append(out, ev.Value)
	}
	return out
}

// TestClusterReshardConcurrentIngestExactlyOnce is the facade half of the
// migration race suite: writers stream events through the router while the
// cluster grows 2→3 underneath them. Afterward, for every user, the final
// owner's write-ahead log must hold exactly the events sent for that user —
// each exactly once, whether it arrived before the reshard (and was migrated),
// during the cutover (and was routed to the new owner directly), or after.
// Cross-source ordering is NOT asserted: a cutover-era write may legally land
// before the user's migrated history (see DESIGN.md §14); per-source order is
// still exact, which the subset checks pin.
func TestClusterReshardConcurrentIngestExactlyOnce(t *testing.T) {
	c, u, ts := reshardTestCluster(t, 2)
	users := u.Train().UserInterner()

	const workers, batches, perBatch = 4, 6, 5
	// Worker w owns users w, workers+w, 2*workers+w, ... — disjoint sets, so
	// per-user event sequences have a single source and a known multiset.
	sent := make([]map[string][]float64, workers)
	var wg sync.WaitGroup
	reshardDone := make(chan *ReshardStats, 1)
	errCh := make(chan error, workers+1)

	for w := 0; w < workers; w++ {
		sent[w] = make(map[string][]float64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				evs := make([]IngestEvent, 0, perBatch)
				for k := 0; k < perBatch; k++ {
					idx := (b*perBatch+k)*workers + w
					user := users.Key(int32(idx % u.Train().NumUsers()))
					val := float64(w*1000 + b*perBatch + k)
					evs = append(evs, IngestEvent{User: user, Item: fmt.Sprintf("it-%d-%d", w, b*perBatch+k), Value: val})
					sent[w][user] = append(sent[w][user], val)
				}
				body, _ := json.Marshal(map[string]interface{}{"events": evs})
				resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("worker %d batch %d: ingest answered %d", w, b, resp.StatusCode)
					return
				}
				time.Sleep(2 * time.Millisecond) // stretch the stream across the cutover
			}
		}(w)
	}
	go func() {
		time.Sleep(5 * time.Millisecond) // let some history accumulate pre-reshard
		stats, err := c.Reshard(3)
		if err != nil {
			errCh <- err
			return
		}
		reshardDone <- stats
	}()
	wg.Wait()
	var stats *ReshardStats
	select {
	case stats = <-reshardDone:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("reshard never completed")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if c.NumShards() != 3 || c.Epoch() != 2 {
		t.Fatalf("cluster at %d shards epoch %d after the grow, want 3 at epoch 2", c.NumShards(), c.Epoch())
	}
	if stats.FromShards != 2 || stats.ToShards != 3 {
		t.Fatalf("stats recorded %d→%d", stats.FromShards, stats.ToShards)
	}
	// The ship pass uses the ring predicate, not the boot-time moving set, so
	// latecomers (users whose first event landed after the scan) are still
	// migrated: migrated ⊇ moved, never the reverse.
	if stats.UsersMigrated < stats.UsersMoved {
		t.Fatalf("migrated %d users, but %d changed owner at reshard start", stats.UsersMigrated, stats.UsersMoved)
	}
	if stats.UsersMigrated == 0 || stats.EventsMigrated == 0 {
		t.Fatalf("reshard migrated nothing (%+v) under concurrent ingest", stats)
	}

	// Exactly once at the final owner: per user, the owner's WAL holds the
	// union of all workers' sends for that user — same multiset, no event
	// duplicated by the migration, none lost in the cutover.
	want := make(map[string][]float64)
	for w := range sent {
		for user, vals := range sent[w] {
			want[user] = append(want[user], vals...)
		}
	}
	for user, vals := range want {
		got := ownedWALEvents(t, c, user)
		a := append([]float64(nil), vals...)
		b := append([]float64(nil), got...)
		sort.Float64s(a)
		sort.Float64s(b)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("user %q: final owner %d holds events %v, want multiset %v",
				user, c.OwnerShard(user), got, vals)
		}
	}

	// The grown cluster still answers reads for every user.
	for k := 0; k < u.Train().NumUsers(); k++ {
		user := users.Key(int32(k))
		resp, err := http.Get(ts.URL + "/recommend?user=" + user)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("user %q answered %d after the grow", user, resp.StatusCode)
		}
	}
}

// TestClusterAddRemoveShardRoundTrip grows 2→3, churns, and shrinks back —
// the A→B→A return path: a user whose history migrated to the new shard and
// back must end with its full history exactly once at its original owner
// (the seeded-cursor rule: the prefix the original owner still holds is
// acknowledged, not re-applied). Validation rules ride along: resharding to
// the current count or with a dead shard is refused.
func TestClusterAddRemoveShardRoundTrip(t *testing.T) {
	c, u, ts := reshardTestCluster(t, 2)
	users := u.Train().UserInterner()

	// Pre-grow history for every 3rd user.
	var tracked []string
	for k := 0; k < u.Train().NumUsers(); k += 3 {
		user := users.Key(int32(k))
		tracked = append(tracked, user)
		postIngest(t, ts.URL, []IngestEvent{{User: user, Item: "pre-grow", Value: 1}})
	}

	stats, err := c.Reshard(3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ToShards != 3 || c.NumShards() != 3 || c.Epoch() != 2 {
		t.Fatalf("grow left %d shards at epoch %d (stats %+v)", c.NumShards(), c.Epoch(), stats)
	}
	// Mid-topology history: events written while the ring has 3 shards.
	for _, user := range tracked {
		postIngest(t, ts.URL, []IngestEvent{{User: user, Item: "mid-grow", Value: 2}})
	}

	stats, err = c.Reshard(2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromShards != 3 || stats.ToShards != 2 || c.NumShards() != 2 || c.Epoch() != 3 {
		t.Fatalf("shrink left %d shards at epoch %d (stats %+v)", c.NumShards(), c.Epoch(), stats)
	}

	// Every tracked user's full history — pre-grow and mid-grow — sits at its
	// final owner exactly once, in order (single source per user here, so
	// order must hold too).
	for _, user := range tracked {
		got := ownedWALEvents(t, c, user)
		if fmt.Sprint(got) != fmt.Sprint([]float64{1, 2}) {
			t.Fatalf("user %q: final owner holds %v, want [1 2]", user, got)
		}
	}

	// Refusals.
	if _, err := c.Reshard(2); err == nil {
		t.Fatal("reshard to the current shard count succeeded")
	}
	if _, err := c.Reshard(0); err == nil {
		t.Fatal("reshard to zero shards succeeded")
	}
	if err := c.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reshard(3); err == nil {
		t.Fatal("reshard with a dead shard succeeded")
	}
	if _, err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
}

// TestClusterReshardAdminEndpoint drives a live grow through the router's
// admin surface — the path cmd/gancd operators use — and pins its error
// taxonomy: 405 for non-POST, 400 for a malformed target, 409 for a refused
// reshard, 200 with the migration statistics on success.
func TestClusterReshardAdminEndpoint(t *testing.T) {
	c, _, ts := reshardTestCluster(t, 2)

	post := func(target string) (int, map[string]interface{}) {
		resp, err := http.Post(ts.URL+"/admin/reshard?target="+target, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body
	}

	if resp, err := http.Get(ts.URL + "/admin/reshard?target=3"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET answered %d, want 405", resp.StatusCode)
		}
	}
	if status, _ := post("abc"); status != http.StatusBadRequest {
		t.Fatalf("malformed target answered %d, want 400", status)
	}
	if status, body := post("2"); status != http.StatusConflict || body["error"] == "" {
		t.Fatalf("no-op reshard answered %d %v, want a 409 with an error", status, body)
	}
	status, body := post("3")
	if status != http.StatusOK {
		t.Fatalf("grow answered %d %v", status, body)
	}
	if body["to_shards"] != float64(3) || body["epoch"] != float64(2) {
		t.Fatalf("grow answered stats %v, want to_shards 3 at epoch 2", body)
	}
	if c.NumShards() != 3 {
		t.Fatalf("cluster has %d shards after the admin grow", c.NumShards())
	}
}

// TestClusterReshardLineageRestart is the satellite-6 regression: restarting
// shards after a reshard must accept checkpoints whose stamped topology
// predates the reshard (the lineage rule) AND post-migration checkpoints
// whose user sets differ from the original split.
func TestClusterReshardLineageRestart(t *testing.T) {
	c, u, ts := reshardTestCluster(t, 2)
	users := u.Train().UserInterner()
	for k := 0; k < u.Train().NumUsers(); k += 2 {
		postIngest(t, ts.URL, []IngestEvent{{User: users.Key(int32(k)), Item: "seed", Value: 3}})
	}
	if _, err := c.Reshard(3); err != nil {
		t.Fatal(err)
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

	// Shard 0's snapshot on disk still says "shard 0 of 2, epoch 1" — the
	// pre-reshard boot checkpoint. The lineage rule must accept it and replay
	// the WAL on top (which now includes migrated-in histories, a user set
	// the original 2-way split never produced).
	probe := ""
	for k := 0; k < u.Train().NumUsers(); k++ {
		if user := users.Key(int32(k)); c.OwnerShard(user) == 0 {
			probe = user
			break
		}
	}
	if probe == "" {
		t.Fatal("no user owned by shard 0")
	}
	_, before := get(probe)
	if err := c.KillShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartShard(0); err != nil {
		t.Fatalf("restart refused the pre-reshard checkpoint lineage: %v", err)
	}
	if status, after := get(probe); status != http.StatusOK || fmt.Sprint(after.Items) != fmt.Sprint(before.Items) {
		t.Fatalf("post-restart answer (%d) %v != pre-kill %v", status, after.Items, before.Items)
	}

	// Checkpoint the post-migration state (stamped with the new topology and
	// a migrated user set), then restart the NEW shard from it: the snapshot
	// loader must accept a shard snapshot whose ingested users differ from
	// any boot-time split.
	if err := c.SaveShards(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadShardEngine(c.shards[2].snapPath); err != nil {
		t.Fatalf("post-migration shard snapshot refused: %v", err)
	}
	probe2 := ""
	for k := 0; k < u.Train().NumUsers(); k++ {
		if user := users.Key(int32(k)); c.OwnerShard(user) == 2 {
			probe2 = user
			break
		}
	}
	if probe2 == "" {
		t.Fatal("no user owned by the added shard")
	}
	_, before2 := get(probe2)
	if err := c.KillShard(2); err != nil {
		t.Fatal(err)
	}
	replayed, err := c.RestartShard(2)
	if err != nil {
		t.Fatalf("restart refused the post-migration checkpoint: %v", err)
	}
	if replayed != 0 {
		t.Fatalf("restart replayed %d events over a fresh checkpoint, want 0", replayed)
	}
	if status, after2 := get(probe2); status != http.StatusOK || fmt.Sprint(after2.Items) != fmt.Sprint(before2.Items) {
		t.Fatalf("restarted added shard answer (%d) %v != pre-kill %v", status, after2.Items, before2.Items)
	}
}
