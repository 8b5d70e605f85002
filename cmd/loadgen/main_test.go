package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ganc"
)

// phaseShape is what the flag → scenario table pins of one phase: its kind
// and the knobs that make it a drill.
type phaseShape struct {
	kind    string
	kill    int // KillShardMid, -1 = none
	reshard int // ReshardMid, 0 = none
	delayMs int // of whichever mid-load event is set
	ingest  int // mix ingest weight
	shard   int
}

func shapeOf(p ganc.ScenarioPhase) phaseShape {
	s := phaseShape{kind: string(p.Kind), kill: -1, ingest: p.Mix.Ingest, shard: p.Shard}
	if p.KillShardMid != nil {
		s.kill = *p.KillShardMid
	}
	if p.ReshardMid != nil {
		s.reshard = *p.ReshardMid
	}
	if p.KillShardMid != nil || p.ReshardMid != nil {
		s.delayMs = p.MidLoadDelayMs
	}
	return s
}

// TestClusterScenarios pins the flag → scenario mapping of every self-hosted
// run, one node or a cluster: which scenarios a flag set selects, in which
// order, and the phase list and knobs of each.
func TestClusterScenarios(t *testing.T) {
	train := phaseShape{kind: "train", kill: -1}
	load := phaseShape{kind: "serve-under-load", kill: -1, ingest: 2}
	overload := phaseShape{kind: "overload", kill: -1, ingest: 2}
	kill := phaseShape{kind: "serve-under-load", kill: 0, delayMs: 150}
	steady := []phaseShape{train, load}
	failover := []phaseShape{train, kill, {kind: "promote-replica", kill: -1}}
	autoFailover := []phaseShape{train, kill, {kind: "await-promotion", kill: -1}}
	reshardTo := func(n int) []phaseShape {
		return []phaseShape{train, {kind: "serve-under-load", kill: -1, reshard: n, delayMs: 150, ingest: 2}}
	}
	type want struct {
		name   string
		phases []phaseShape
	}
	for _, tc := range []struct {
		args string
		want []want
	}{
		{"", []want{{"load", steady}}},
		{"-overload", []want{{"overload", []phaseShape{train, overload}}}},
		{"-cluster 3", []want{{"load", steady}}},
		{"-cluster 3 -replicas 1", []want{{"load", steady}, {"failover", failover}}},
		{"-cluster 2 -replicas 2 -write-quorum 2 -autofail", []want{{"load", steady}, {"auto-failover", autoFailover}}},
		{"-cluster 2 -reshard 3", []want{{"load", steady}, {"reshard", reshardTo(3)}}},
		{"-cluster 3 -replicas 1 -autofail -reshard 4", []want{{"load", steady}, {"auto-failover", autoFailover}, {"reshard", reshardTo(4)}}},
	} {
		o, err := parseFlags(strings.Fields(tc.args + " -users 60 -items 40 -ratings 900 -requests 77 -concurrency 3 -batch 5 -n 7 -seed 9"))
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if a := o.admit; tc.args == "-overload" && (a.MaxConcurrent != 1 || a.RatePerSec != 0 || a.MaxWait != 0) {
			t.Fatalf("-overload at -concurrency 3 admits with %+v, want the default cap of a quarter of the workers, floored at 1", o.admit)
		}
		scs := scenarios(o)
		if len(scs) != len(tc.want) {
			t.Fatalf("%s: %d scenarios, want %d", tc.args, len(scs), len(tc.want))
		}
		for k, sc := range scs {
			w := tc.want[k]
			if sc.Name != w.name || len(sc.Phases) != len(w.phases) {
				t.Fatalf("%s: scenario %d is %q with %d phases, want %q with %d", tc.args, k, sc.Name, len(sc.Phases), w.name, len(w.phases))
			}
			if sc.Universe.Users != 60 || sc.Universe.Seed != 9 || sc.TopN != 7 || sc.Seed != 9 {
				t.Fatalf("%s: scenario %q lost the universe/serving flags: %+v", tc.args, sc.Name, sc)
			}
			for i, p := range sc.Phases {
				if got := shapeOf(p); got != w.phases[i] {
					t.Fatalf("%s: scenario %q phase %d = %+v, want %+v", tc.args, sc.Name, i, got, w.phases[i])
				}
				if (p.Kind == ganc.PhaseServeUnderLoad || p.Kind == ganc.PhaseOverload) && (p.Requests != 77 || p.Concurrency != 3 || p.BatchSize != 5 || p.Mix.Recommend != 90 || p.Mix.Batch != 8) {
					t.Fatalf("%s: scenario %q load phase lost the load flags: %+v", tc.args, sc.Name, p)
				}
			}
		}
	}

	// A read-only mix still exercises write routing across a reshard.
	o, err := parseFlags(strings.Fields("-cluster 2 -reshard 3 -mix-ingest 0"))
	if err != nil {
		t.Fatal(err)
	}
	scs := scenarios(o)
	if got := scs[0].Phases[1].Mix.Ingest; got != 0 {
		t.Fatalf("steady-state load ingest weight %d, want the configured 0", got)
	}
	if got := scs[1].Phases[1].Mix.Ingest; got != 2 {
		t.Fatalf("reshard drill ingest weight %d, want the floor of 2", got)
	}
}

// TestRejectedFlagCombinations pins every combination run refuses, by the
// flag the error names — among them the -url-only knobs on a self-hosted
// run, one node or a cluster.
func TestRejectedFlagCombinations(t *testing.T) {
	for args, want := range map[string]string{
		"-cluster 2 -url http://x":                         "-url",
		"-cluster 2 -overload":                             "-overload",
		"-replicas 1":                                      "-replicas requires -cluster",
		"-reshard 3":                                       "-reshard requires -cluster",
		"-cluster 3 -reshard 3":                            "-reshard must exceed -cluster",
		"-cluster 2 -autofail":                             "-autofail requires",
		"-cluster 2 -replicas 1 -write-quorum 2":           "-write-quorum 2 exceeds -replicas 1",
		"-url http://x -overload":                          "-overload",
		"-cluster 2 -ingest-batch 5":                       "-ingest-batch is a -url flag",
		"-cluster 2 -request-zipf 1.2":                     "-request-zipf is a -url flag",
		"-ingest-batch 5":                                  "-ingest-batch is a -url flag",
		"-request-zipf 1.2":                                "-request-zipf is a -url flag",
		"-overload -ingest-batch 5":                        "-ingest-batch is a -url flag",
		"-cluster 2 -replicas 1 -write-quorum 2 -autofail": "-write-quorum 2 exceeds -replicas 1",
	} {
		if err := run(strings.Fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("loadgen %s: error %v, want one naming %q", args, err, want)
		}
	}
	if _, err := parseFlags(strings.Fields("-url http://x -ingest-batch 5 -request-zipf 1.2")); err != nil {
		t.Errorf("a -url run refused its own knobs: %v", err)
	}
}

// TestClusterDrillsEndToEnd runs the steady-state load, the failover drill
// and the reshard drill on the tiny universe through the real cluster
// assembly, and checks what the drills promise — no client-visible error, a
// promotion whose shadow parity was asserted, a ring that grew — and that
// -out round-trips as JSON.
func TestClusterDrillsEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "drills.json")
	args := "-cluster 2 -replicas 1 -reshard 3 -users 60 -items 40 -ratings 900 -requests 600 -concurrency 4 -out " + out
	if err := run(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []ganc.ScenarioResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("-out is not a JSON list of scenario results: %v", err)
	}
	if len(results) != 3 || results[0].Scenario != "load" || results[1].Scenario != "failover" || results[2].Scenario != "reshard" {
		t.Fatalf("-out recorded %+v, want the load, failover and reshard scenarios", results)
	}
	for _, res := range results {
		load := res.Phases[1].Load
		if load == nil || load.Requests != 600 || load.Errors != 0 {
			t.Fatalf("scenario %q load phase: %+v, want 600 requests and zero client-visible errors", res.Scenario, load)
		}
	}
	if promote := results[1].Phases[2]; promote.Kind != ganc.PhasePromoteReplica || !promote.ParityChecked || promote.Epoch < 2 {
		t.Fatalf("failover drill's promotion phase: %+v, want shadow parity asserted under a bumped epoch", promote)
	}
	if rs := results[2].Phases[1].Reshard; rs == nil || rs.Epoch < 2 {
		t.Fatalf("reshard drill recorded no completed migration: %+v", rs)
	}

	// Without -out a run leaves nothing behind.
	dir := t.TempDir()
	t.Chdir(dir)
	if err := run(strings.Fields("-cluster 2 -users 60 -items 40 -ratings 900 -requests 100 -concurrency 2")); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a run without -out wrote %d files into its working directory", len(left))
	}
}

// TestNodeScenariosEndToEnd runs the single-node steady load and the
// overload drill on the tiny universe through the real node assembly: the
// steady run's ingest traffic is served (the runner enables ingestion for a
// mix that writes), nothing is rejected or fails, and the overload drill
// sheds under a concurrency cap with typed 429s (a cap of 1 and writes in
// the mix make handlers overlap even on one CPU).
func TestNodeScenariosEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "node.json")
	if err := run(strings.Fields("-users 60 -items 40 -ratings 900 -requests 400 -concurrency 4 -mix-ingest 10 -out " + out)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var results []ganc.ScenarioResult
	if err := json.Unmarshal(data, &results); err != nil || len(results) != 1 || len(results[0].Phases) != 2 {
		t.Fatalf("-out recorded %s (%v), want the one steady-load scenario", data, err)
	}
	load := results[0].Phases[1].Load
	if load == nil || load.Requests != 400 || load.Errors != 0 || load.Rejected != 0 || load.Endpoints["ingest"].Count == 0 {
		t.Fatalf("steady load %+v: want 400 requests, ingest traffic served, nothing failed or rejected", load)
	}

	out = filepath.Join(t.TempDir(), "overload.json")
	if err := run(strings.Fields("-overload -users 60 -items 40 -ratings 900 -requests 400 -concurrency 8 -max-concurrent 1 -mix-ingest 20 -out " + out)); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	results = nil
	if err := json.Unmarshal(data, &results); err != nil || len(results) != 1 {
		t.Fatalf("-out recorded %s (%v), want the one overload scenario", data, err)
	}
	if ov := results[0].Phases[1]; ov.Kind != ganc.PhaseOverload || ov.Load.Shed == 0 || ov.Load.Errors != 0 || !ov.MetricsValidated {
		t.Fatalf("overload drill %+v: want shedding, zero errors and a validated /metrics scrape", ov)
	}
}
