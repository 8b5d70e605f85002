package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ganc"
)

// splitSnapshots trains a small Pop pipeline, saves it, and shard-splits it
// through run with the given split flags — the same files an operator's
// `ganc -save` + `gancd -role split` leave behind. It returns the plain
// snapshot and the shard directory.
func splitSnapshots(t *testing.T, flags string) (model, dir string) {
	t.Helper()
	u, err := ganc.NewUniverse(ganc.UniverseConfig{Users: 50, Items: 30, Ratings: 700, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ganc.NewPipeline(u.Train(),
		ganc.WithBaseNamed("Pop"),
		ganc.WithPreferences(ganc.PreferenceTFIDF),
		ganc.WithTopN(5),
		ganc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	model = filepath.Join(tmp, "model.snap")
	if err := p.Save(model); err != nil {
		t.Fatal(err)
	}
	return model, split(t, model, flags)
}

// split shard-splits model through run, with the given split flags, into a
// fresh directory it returns.
func split(t *testing.T, model, flags string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "shards")
	args := fmt.Sprintf("-role split -load %s -out %s %s", model, dir, flags)
	if err := run(context.Background(), strings.Fields(args), io.Discard); err != nil {
		t.Fatalf("gancd %s: %v", args, err)
	}
	return dir
}

// TestRejectedFlagCombinations pins every combination run refuses, by what
// the error names. A combination run accepted instead would serve until its
// context expired and return nil, which fails the row too.
func TestRejectedFlagCombinations(t *testing.T) {
	model, dir := splitSnapshots(t, "-shards 2")
	shard0 := filepath.Join(dir, "shard-000.snap")
	quorum1 := filepath.Join(split(t, model, "-shards 1 -write-quorum 1"), "shard-000.snap")
	quorum2 := filepath.Join(split(t, model, "-shards 1 -write-quorum 2"), "shard-000.snap")
	wal := filepath.Join(t.TempDir(), "n.wal")
	for args, want := range map[string]string{
		"-role nope":                                                                       `unknown -role "nope"`,
		"-role shard -load " + shard0:                                                      "-serve is required",
		"-role split -load " + model:                                                       "-out directory is required",
		"-role standalone -serve :0 extra":                                                 `unexpected argument "extra"`,
		"-role shard -serve :0":                                                            "-load is required",
		"-role shard -serve :0 -load " + model:                                             "carries no shard identity",
		"-role shard -serve :0 -shard-id 1 -load " + shard0:                                "-shard-id says 1",
		"-role shard -serve :0 -shards 3 -load " + shard0:                                  "-shards says 3",
		"-role replica -serve :0 -epoch 2 -ingest-log " + wal + " -load " + shard0:         "-epoch says 2",
		"-role shard -serve :0 -write-quorum 1 -ingest-log " + wal + " -load " + shard0:    "-write-quorum says 1",
		"-role replica -serve :0 -write-quorum 0 -ingest-log " + wal + " -load " + quorum1: "-write-quorum says 0",

		// The silent quorum downgrade: a quorum nobody can acknowledge used to
		// be accepted and then acked unreplicated writes.
		"-role shard -serve :0 -ingest-log " + wal + " -load " + quorum1:                    "write quorum 1 outside [0, 0 replicas]",
		"-role shard -serve :0 -replica-addrs h:1 -ingest-log " + wal + " -load " + quorum2: "write quorum 2 outside [0, 1 replicas]",
		"-role split -write-quorum -1 -out " + dir + " -load " + model:                      "invalid write quorum -1",
		"-role shard -serve :0 -replica-addrs h:1 -load " + shard0:                          "needs a write-ahead log",
		"-role cluster -serve :0 -load " + model:                                            `unknown -role "cluster"`,
		"-role router -serve :0 -peers a:1 -replicas 1":                                     "flag provided but not defined: -replicas",
		"-role router -serve :0 -peers a:1 -retries 0":                                      "flag provided but not defined: -retries",
		"-role router -serve :0 -peers a:1 -max-replica-lag 5":                              "flag provided but not defined: -max-replica-lag",
		"-role router -serve :0 -peers a:1 -suspect-after 2":                                "flag provided but not defined: -suspect-after",

		// A flag the role does not read is refused, not ignored: a node
		// started as a replica ships to no one, a router's knobs mean nothing
		// on a node, one node has no shard count.
		"-role replica -serve :0 -load " + shard0:                                                                         "-ingest-log is required for -role replica",
		"-role replica -serve :0 -replica-addrs h:1 -ingest-log " + wal + " -load " + shard0:                              "-replica-addrs does not apply to -role replica",
		"-role router -serve :0 -peers a:1 -write-quorum 1":                                                               "-write-quorum does not apply to -role router (it is read by -role split, shard, replica)",
		"-role shard -serve :0 -detect-interval-ms 5 -load " + shard0:                                                     "-detect-interval-ms does not apply to -role shard (it is read by -role router)",
		"-role standalone -serve :0 -shards 5 -load " + model:                                                             "-shards does not apply to -role standalone (it is read by -role split, shard, replica)",
		"-role standalone -serve :0 -auto-failover -load " + model:                                                        "-auto-failover does not apply to -role standalone (it is read by -role router)",
		"-role split -metrics -out " + dir + " -load " + model:                                                            "-metrics does not apply to -role split",
		"-role router -serve :0":                                                                                          "-peers",
		"-role router -serve :0 -peers a:1,,b:2":                                                                          "-peers",
		"-role router -serve :0 -peers a:1,b:2 -auto-failover":                                                            "no replica to promote",
		"-role standalone -serve :0 -request-log " + filepath.Join(dir, "no", "such", "dir", "r.log") + " -load " + model: "opening request log",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := run(ctx, strings.Fields(args), io.Discard)
		cancel()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("gancd %s: error %v, want one naming %q", args, err, want)
		}
	}
}

// freeAddr reserves a loopback port and releases it for run to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitHealthy polls addr until /health answers 200.
func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never answered /health: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStandaloneServesIngestsAndRecovers is the single-node daemon end to
// end: serve a snapshot with a write-ahead log and a checkpoint cadence, read,
// write across one checkpoint, stop on cancel, and start again on the same
// files — the restart loads the checkpoint, replays the log's suffix and
// answers as before.
func TestStandaloneServesIngestsAndRecovers(t *testing.T) {
	model, _ := splitSnapshots(t, "-shards 1")
	args := fmt.Sprintf("-role standalone -load %s -ingest-log %s -checkpoint-interval 2 -serve ",
		model, filepath.Join(t.TempDir(), "events.wal"))

	// serve runs the daemon until stop is called, which returns what it logged.
	serve := func() (addr string, stop func() string) {
		addr = freeAddr(t)
		ctx, cancel := context.WithCancel(context.Background())
		var stderr bytes.Buffer
		done := make(chan error, 1)
		go func() { done <- run(ctx, strings.Fields(args+addr), &stderr) }()
		waitHealthy(t, addr)
		return addr, func() string {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("gancd %s: %v", args+addr, err)
			}
			return stderr.String()
		}
	}
	recommend := func(addr string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/recommend?user=u-new")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list struct{ Items []string }
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || resp.StatusCode != http.StatusOK || len(list.Items) != 5 {
			t.Fatalf("GET /recommend answered %d with %d items (%v), want 200 with 5", resp.StatusCode, len(list.Items), err)
		}
		return strings.Join(list.Items, " ")
	}

	addr, stop := serve()
	// Three events in two batches: the checkpoint at two events leaves the
	// third in the log alone.
	events := []ganc.IngestEvent{{User: "u-new", Item: "it-1", Value: 4}, {User: "u-new", Item: "it-2", Value: 5}, {User: "u-new", Item: "it-3", Value: 3}}
	for _, batch := range [][]ganc.IngestEvent{events[:2], events[2:]} {
		payload, _ := json.Marshal(map[string]interface{}{"events": batch})
		resp, err := http.Post("http://"+addr+"/ingest", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /ingest answered %d", resp.StatusCode)
		}
	}
	before := recommend(addr)
	if log := stop(); strings.Contains(log, "replayed") {
		t.Fatalf("the first start replayed events from an empty log:\n%s", log)
	}

	addr, stop = serve()
	after := recommend(addr)
	if log := stop(); !strings.Contains(log, "replayed 1 events") || !strings.Contains(log, "resuming at seq 3") {
		t.Fatalf("the restart did not report replaying the one event past the checkpoint:\n%s", log)
	}
	if after != before {
		t.Fatalf("u-new's list changed across the restart: %q, then %q", before, after)
	}
}

// TestMultiProcessRolesOverLoopback starts a replica, its shard's primary
// (split with write quorum 1, which the shard role cross-checks) and a
// router — three run calls, as three processes would — ingests through the
// router, and checks that the write reached the replica and that the primary
// is the same node an in-process one is: it answers /replicate/tail and
// refuses pushed /replicate chunks by role.
func TestMultiProcessRolesOverLoopback(t *testing.T) {
	_, dir := splitSnapshots(t, "-shards 1 -write-quorum 1")
	snap := filepath.Join(dir, "shard-000.snap")
	tmp := t.TempDir()
	replicaAddr, shardAddr, routerAddr := freeAddr(t), freeAddr(t), freeAddr(t)

	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := func(args string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ctx, strings.Fields(args), io.Discard); err != nil {
				t.Errorf("gancd %s: %v", args, err)
			}
		}()
	}
	defer func() { stop(); wg.Wait() }() // every role shuts down cleanly on cancel

	start(fmt.Sprintf("-role replica -load %s -ingest-log %s -serve %s", snap, filepath.Join(tmp, "r0.wal"), replicaAddr))
	waitHealthy(t, replicaAddr)
	start(fmt.Sprintf("-role shard -load %s -ingest-log %s -replica-addrs %s -write-quorum 1 -serve %s",
		snap, filepath.Join(tmp, "s0.wal"), replicaAddr, shardAddr))
	waitHealthy(t, shardAddr)
	start(fmt.Sprintf("-role router -peers %s+%s -serve %s", shardAddr, replicaAddr, routerAddr))
	waitHealthy(t, routerAddr)

	post := func(url string, body interface{}, out interface{}) int {
		t.Helper()
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s answered %d with an undecodable body: %v", url, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	events := []ganc.IngestEvent{{User: "u-new", Item: "it-1", Value: 4}, {User: "u-new", Item: "it-2", Value: 5}}
	var ingested struct{ Applied int }
	if status := post("http://"+routerAddr+"/ingest", map[string]interface{}{"events": events}, &ingested); status != http.StatusOK || ingested.Applied != len(events) {
		t.Fatalf("ingest through the router answered %d, applied %d of %d", status, ingested.Applied, len(events))
	}

	// Quorum 1 of 1: the write was acknowledged only after the replica held
	// it, so its cursor has advanced by the time the router answered.
	var health ganc.ServerHealth
	resp, err := http.Get("http://" + replicaAddr + "/health")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Replication == nil || health.Replication.Role != "replica" || health.Replication.AppliedSeq != uint64(len(events)) {
		t.Fatalf("replica /health replication = %+v, want role replica at cursor %d", health.Replication, len(events))
	}

	// The primary serves tail pulls from its log …
	var tail struct {
		First, Head uint64
		Events      []ganc.IngestEvent
	}
	pull := map[string]interface{}{"shard": 0, "epoch": 1, "first": 1, "head": len(events)}
	if status := post("http://"+shardAddr+"/replicate/tail", pull, &tail); status != http.StatusOK || tail.Head != uint64(len(events)) || len(tail.Events) != len(events) {
		t.Fatalf("primary /replicate/tail answered %d %+v, want 200 with both events", status, tail)
	}
	// … and refuses a pushed batch by role, as does the replica a client write.
	var refusal struct{ Code string }
	push := map[string]interface{}{"shard": 0, "epoch": 1, "first": 3, "head": 3, "events": events[:1]}
	if status := post("http://"+shardAddr+"/replicate", push, &refusal); status != http.StatusConflict || refusal.Code != "replicate_role" {
		t.Fatalf("primary answered a pushed /replicate chunk with %d %q, want 409 replicate_role", status, refusal.Code)
	}
	if status := post("http://"+replicaAddr+"/ingest", map[string]interface{}{"events": events}, &refusal); status != http.StatusConflict || refusal.Code != "ingest_role" {
		t.Fatalf("replica answered a client write with %d %q, want 409 ingest_role", status, refusal.Code)
	}
}

// TestRouterRoleAutoFailover runs one process per node — a shard, two
// replicas and a -role router -auto-failover, each run on its own listener,
// from a split with write quorum 1 — and stops the shard. Within the
// detector window the router promotes a replica over the wire: a routed
// write is accepted again, exactly one replica's /health reports the primary
// role under write quorum 1, and the promoted replica checkpoints at the
// -checkpoint-interval it was started with, keeping the quorum in the
// snapshot.
func TestRouterRoleAutoFailover(t *testing.T) {
	_, dir := splitSnapshots(t, "-shards 1 -write-quorum 1")
	snap := filepath.Join(dir, "shard-000.snap")
	tmp := t.TempDir()
	replicas := []string{freeAddr(t), freeAddr(t)}
	shardAddr, routerAddr := freeAddr(t), freeAddr(t)

	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := func(ctx context.Context, args string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ctx, strings.Fields(args), io.Discard); err != nil {
				t.Errorf("gancd %s: %v", args, err)
			}
		}()
	}
	defer func() { stop(); wg.Wait() }()

	for k, addr := range replicas {
		start(ctx, fmt.Sprintf("-role replica -load %s -ingest-log %s -checkpoint-interval 1 -serve %s", snap, filepath.Join(tmp, fmt.Sprintf("r%d.wal", k)), addr))
		waitHealthy(t, addr)
	}
	shardCtx, killShard := context.WithCancel(ctx)
	start(shardCtx, fmt.Sprintf("-role shard -load %s -ingest-log %s -replica-addrs %s -serve %s",
		snap, filepath.Join(tmp, "s0.wal"), strings.Join(replicas, ","), shardAddr))
	waitHealthy(t, shardAddr)
	start(ctx, fmt.Sprintf("-role router -peers %s -auto-failover -detect-interval-ms 20 -serve %s",
		strings.Join(append([]string{shardAddr}, replicas...), "+"), routerAddr))
	waitHealthy(t, routerAddr)

	ingest := func() int {
		payload, _ := json.Marshal(map[string]interface{}{"events": []ganc.IngestEvent{{User: "u-new", Item: "it-1", Value: 4}}})
		resp, err := http.Post("http://"+routerAddr+"/ingest", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if status := ingest(); status != http.StatusOK {
		t.Fatalf("routed write before the kill answered %d", status)
	}

	killShard()
	deadline := time.Now().Add(5 * time.Second)
	for ingest() != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("no routed write was accepted within 5s of the primary's loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var promoted []string
	for _, addr := range replicas {
		var health ganc.ServerHealth
		resp, err := http.Get("http://" + addr + "/health")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r := health.Replication; r != nil && r.Role == "primary" {
			promoted = append(promoted, addr)
			if r.WriteQuorum != 1 {
				t.Fatalf("the promoted replica %s acks under write quorum %d, want the split's 1", addr, r.WriteQuorum)
			}
		}
	}
	if len(promoted) != 1 {
		t.Fatalf("replicas reporting the primary role after the failover: %v, want exactly one", promoted)
	}
	// The shard never checkpointed; the write before the kill and the one
	// accepted after it are both in the snapshot only if the promoted
	// replica checkpointed.
	p, id, err := ganc.LoadShardEngine(snap)
	if err != nil {
		t.Fatal(err)
	}
	if seq := p.Mark().Seq; seq < 2 {
		t.Fatalf("the shard snapshot's cursor is %d after a write the promoted replica accepted, want at least 2", seq)
	}
	if id.WriteQuorum != 1 {
		t.Fatalf("the promoted replica's checkpoint carries write quorum %d, want 1", id.WriteQuorum)
	}
}

// TestRouterRoleReshard grows a deployment of one process per node — two
// shards behind a -role router — onto a third shard process through the
// router's POST /admin/reshard, then shrinks it back. The router reads the
// sources' logs and ships the movers' histories over the wire alone: every
// user's events sit at their owner after each step, and every node's /info
// carries the ring it was pushed.
func TestRouterRoleReshard(t *testing.T) {
	model, dir := splitSnapshots(t, "-shards 2")
	grown := split(t, model, "-shards 3")
	tmp := t.TempDir()
	shards := []string{freeAddr(t), freeAddr(t), freeAddr(t)}
	routerAddr := freeAddr(t)

	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	start := func(args string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(ctx, strings.Fields(args), io.Discard); err != nil {
				t.Errorf("gancd %s: %v", args, err)
			}
		}()
	}
	defer func() { stop(); wg.Wait() }()
	snaps := []string{filepath.Join(dir, "shard-000.snap"), filepath.Join(dir, "shard-001.snap"), filepath.Join(grown, "shard-002.snap")}
	for i, addr := range shards {
		start(fmt.Sprintf("-role shard -load %s -ingest-log %s -serve %s", snaps[i], filepath.Join(tmp, fmt.Sprintf("s%d.wal", i)), addr))
		waitHealthy(t, addr)
	}
	start(fmt.Sprintf("-role router -peers %s,%s -serve %s", shards[0], shards[1], routerAddr))
	waitHealthy(t, routerAddr)

	post := func(path string, body, out interface{}) int {
		t.Helper()
		payload, _ := json.Marshal(body)
		resp, err := http.Post("http://"+routerAddr+path, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s answered %d with an undecodable body: %v", path, resp.StatusCode, err)
		}
		return resp.StatusCode
	}
	users := make([]string, 40)
	var events []ganc.IngestEvent
	for k := range users {
		users[k] = fmt.Sprintf("u-%02d", k)
		events = append(events, ganc.IngestEvent{User: users[k], Item: "it-1", Value: 4})
	}
	var ingested struct{ Applied int }
	if status := post("/ingest", map[string]interface{}{"events": events}, &ingested); status != http.StatusOK || ingested.Applied != len(events) {
		t.Fatalf("ingest through the router answered %d, applied %d of %d", status, ingested.Applied, len(events))
	}

	// check asserts the router routes n shards at epoch, every node of the
	// ring agrees, and each user's one event sits at its owner.
	check := func(n int, epoch uint64) {
		t.Helper()
		var info ganc.ClusterInfoResponse
		resp, err := http.Get("http://" + routerAddr + "/info")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil || info.Cluster.NumShards != n || info.Cluster.Epoch != epoch || info.Cluster.Healthy != n {
			t.Fatalf("router /info cluster = %+v (%v), want %d healthy shards at epoch %d", info.Cluster, err, n, epoch)
		}
		ring, err := ganc.NewRing(epoch, []ganc.ShardInfo{{ID: 0, Addr: shards[0]}, {ID: 1, Addr: shards[1]}, {ID: 2, Addr: shards[2]}}[:n])
		if err != nil {
			t.Fatal(err)
		}
		held := make([]int, n)
		for k, st := range info.Cluster.Shards {
			if st.EpochMismatch {
				t.Fatalf("shard %d's /info disagrees with the router's ring: %+v", k, st.Info.Shard)
			}
			var tail struct{ Events []ganc.IngestEvent }
			payload, _ := json.Marshal(map[string]interface{}{"shard": k, "first": 1, "head": 1000})
			resp, err := http.Post("http://"+shards[k]+"/replicate/tail", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			_ = json.NewDecoder(resp.Body).Decode(&tail)
			resp.Body.Close()
			for _, ev := range tail.Events {
				if ring.Owner(ev.User) == k {
					held[k]++
				}
			}
		}
		for _, u := range users {
			held[ring.Owner(u)]--
		}
		for k, extra := range held {
			if extra != 0 {
				t.Fatalf("at epoch %d shard %d holds %d events more than the users it owns sent", epoch, k, extra)
			}
		}
	}
	check(2, 1)

	var stats ganc.ReshardStats
	if status := post("/admin/reshard?target=3&add="+shards[2], nil, &stats); status != http.StatusOK || stats.ToShards != 3 || stats.UsersMigrated == 0 {
		t.Fatalf("the grow answered %d %+v, want 200 with migrated users", status, stats)
	}
	check(3, 2)
	if status := post("/admin/reshard?target=2", nil, &stats); status != http.StatusOK || stats.ToShards != 2 || stats.UsersMigrated == 0 {
		t.Fatalf("the shrink answered %d %+v, want 200 with migrated users", status, stats)
	}
	check(2, 3)
}
