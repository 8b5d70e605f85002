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
// through run — the same files an operator's `ganc -save` + `gancd -role
// split` leave behind. It returns the plain snapshot and the shard directory.
func splitSnapshots(t *testing.T, shards int) (model, dir string) {
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
	dir = filepath.Join(tmp, "shards")
	args := fmt.Sprintf("-role split -load %s -shards %d -out %s", model, shards, dir)
	if err := run(context.Background(), strings.Fields(args), io.Discard); err != nil {
		t.Fatalf("gancd %s: %v", args, err)
	}
	return model, dir
}

// TestRejectedFlagCombinations pins every combination run refuses, by what
// the error names. A combination run accepted instead would serve until its
// context expired and return nil, which fails the row too.
func TestRejectedFlagCombinations(t *testing.T) {
	model, dir := splitSnapshots(t, 2)
	shard0 := filepath.Join(dir, "shard-000.snap")
	wal := filepath.Join(t.TempDir(), "n.wal")
	for args, want := range map[string]string{
		"-role nope":                                                               `unknown -role "nope"`,
		"-role shard -load " + shard0:                                              "-serve is required",
		"-role split -load " + model:                                               "-out directory is required",
		"-role standalone -serve :0 extra":                                         `unexpected argument "extra"`,
		"-role shard -serve :0":                                                    "-load is required",
		"-role shard -serve :0 -load " + model:                                     "carries no shard identity",
		"-role shard -serve :0 -shard-id 1 -load " + shard0:                        "-shard-id says 1",
		"-role shard -serve :0 -shards 3 -load " + shard0:                          "-shards says 3",
		"-role replica -serve :0 -epoch 2 -ingest-log " + wal + " -load " + shard0: "-epoch says 2",

		// The silent quorum downgrade: a quorum nobody can acknowledge used to
		// be accepted and then acked unreplicated writes.
		"-role shard -serve :0 -write-quorum 1 -ingest-log " + wal + " -load " + shard0:                    "write quorum 1 outside [0, 0 replicas]",
		"-role shard -serve :0 -write-quorum 2 -replica-addrs h:1 -ingest-log " + wal + " -load " + shard0: "write quorum 2 outside [0, 1 replicas]",
		"-role shard -serve :0 -write-quorum -1 -ingest-log " + wal + " -load " + shard0:                   "write quorum -1 outside",
		"-role shard -serve :0 -replica-addrs h:1 -load " + shard0:                                         "needs a write-ahead log",
		"-role cluster -serve :0 -replicas 1 -write-quorum 2 -load " + model:                               "write quorum 2 outside [0, 1 replicas]",
		"-role cluster -serve :0 -auto-failover -load " + model:                                            "auto-failover requires at least one replica",

		// A flag the role does not read is refused, not ignored: a node
		// started as a replica ships to no one, a router's knobs mean nothing
		// on a node, one node has no shard count.
		"-role replica -serve :0 -load " + shard0:                                                 "-ingest-log is required for -role replica",
		"-role replica -serve :0 -replica-addrs h:1 -ingest-log " + wal + " -load " + shard0:      "-replica-addrs does not apply to -role replica",
		"-role replica -serve :0 -write-quorum 1 -ingest-log " + wal + " -load " + shard0:         "-write-quorum does not apply to -role replica",
		"-role replica -serve :0 -checkpoint-interval 10 -ingest-log " + wal + " -load " + shard0: "-checkpoint-interval does not apply to -role replica",
		"-role cluster -serve :0 -max-replica-lag 5 -load " + model:                               "-max-replica-lag does not apply to -role cluster (it is read by -role router)",
		"-role standalone -serve :0 -shards 5 -load " + model:                                     "-shards does not apply to -role standalone (it is read by -role split, shard, replica, cluster)",
		"-role standalone -serve :0 -retries 0 -load " + model:                                    "-retries does not apply to -role standalone (it is read by -role router, cluster)",
		"-role split -metrics -out " + dir + " -load " + model:                                    "-metrics does not apply to -role split",
		"-role router -serve :0":                 "-peers",
		"-role router -serve :0 -peers a:1,,b:2": "-peers",
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
	model, _ := splitSnapshots(t, 1)
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
// (write quorum 1) and a router — three run calls, as three processes would —
// ingests through the router, and checks that the write reached the replica
// and that the primary is the same node an in-process one is: it answers
// /replicate/tail and refuses pushed /replicate chunks by role.
func TestMultiProcessRolesOverLoopback(t *testing.T) {
	_, dir := splitSnapshots(t, 1)
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
