package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/serve"
)

// healthNode is a stub cluster node for detector tests: it serves /health
// with a configurable replication cursor, counts hits per path, and can be
// switched to answering 500 (down) without closing its listener.
type healthNode struct {
	ts         *nodeServer
	down       atomic.Bool
	healthHits atomic.Int64
	recoHits   atomic.Int64
	role       string
	seq        atomic.Uint64
	lag        atomic.Uint64
}

func newHealthNode(t *testing.T, shard int, role string) *healthNode {
	t.Helper()
	n := &healthNode{role: role}
	mux := http.NewServeMux()
	mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
		n.healthHits.Add(1)
		if n.down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		id := shard
		writeJSON(w, http.StatusOK, serve.HealthResponse{
			Status: "ok", Shard: &id,
			Replication: &serve.ReplicationStatus{
				Role:       n.role,
				AppliedSeq: n.seq.Load(),
				LagEvents:  n.lag.Load(),
			},
		})
	})
	mux.HandleFunc("/recommend", func(w http.ResponseWriter, _ *http.Request) {
		n.recoHits.Add(1)
		if n.down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"served_by": n.role})
	})
	n.ts = newNodeServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func (n *healthNode) addr() string { return n.ts.addr() }

// testDetector builds a loop-less detector over a fixed ring; tests drive
// sample() synchronously so suspicion timing is deterministic.
func testDetector(t *testing.T, ring *Ring, cfg DetectorConfig) *Detector {
	t.Helper()
	cfg.Ring = func() *Ring { return ring }
	cfg.hop = newHop(nil)
	d := newDetector(cfg)
	t.Cleanup(func() { d.Close(); cfg.hop.Close() })
	return d
}

// detectorRouter builds a router over a replicated ring and hands back the
// detector NewRouter started for it. The sampling interval is an hour, so
// after the first sample NewRouter takes itself the loop stays parked and the
// test drives sample() synchronously.
func detectorRouter(t *testing.T, cfg RouterConfig) (*Router, *Detector) {
	t.Helper()
	cfg.DetectInterval = time.Hour
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	if rt.detector == nil {
		t.Fatal("a router over a replicated ring must start a detector")
	}
	return rt, rt.detector
}

func TestDetectorSuspicionRisesAndClears(t *testing.T) {
	primary := newHealthNode(t, 0, "primary")
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: primary.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	d := testDetector(t, ring, DetectorConfig{})

	d.sample()
	row, ok := d.Node(primary.addr())
	if !ok || !row.Alive || row.Suspected {
		t.Fatalf("healthy primary row = %+v, ok=%v; want alive, unsuspected", row, ok)
	}

	primary.down.Store(true)
	for i := 1; i <= 2; i++ {
		d.sample()
		if row, _ := d.Node(primary.addr()); row.Suspected {
			t.Fatalf("suspected after only %d misses (threshold 3)", i)
		}
	}
	d.sample()
	if row, _ := d.Node(primary.addr()); !row.Suspected || row.Misses != 3 {
		t.Fatalf("after 3 misses row = %+v; want suspected with 3 misses", row)
	}

	primary.down.Store(false)
	d.sample()
	if row, _ := d.Node(primary.addr()); row.Suspected || !row.Alive || row.Misses != 0 {
		t.Fatalf("after recovery row = %+v; want alive, unsuspected, zero misses", row)
	}
}

func TestDetectorSuspicionCallbackFiresOncePerEpisode(t *testing.T) {
	primary := newHealthNode(t, 0, "primary")
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: primary.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	d := testDetector(t, ring, DetectorConfig{
		suspectAfter:     2,
		OnSuspectPrimary: func(int, string) { fired.Add(1) },
	})

	primary.down.Store(true)
	for i := 0; i < 5; i++ {
		d.sample()
	}
	d.wg.Wait() // callbacks run in tracked goroutines; Close would also wait
	if n := fired.Load(); n != 1 {
		t.Fatalf("callback fired %d times across one outage episode, want exactly 1", n)
	}

	// Recovery re-arms the latch; a second outage fires a second callback.
	primary.down.Store(false)
	d.sample()
	primary.down.Store(true)
	for i := 0; i < 3; i++ {
		d.sample()
	}
	d.wg.Wait()
	if n := fired.Load(); n != 2 {
		t.Fatalf("callback fired %d times across two outage episodes, want 2", n)
	}
}

func TestFreshestReplicaPrefersHighestCursorAndSkipsSuspects(t *testing.T) {
	primary := newHealthNode(t, 0, "primary")
	fresh := newHealthNode(t, 0, "replica")
	fresh.seq.Store(50)
	stale := newHealthNode(t, 0, "replica")
	stale.seq.Store(40)
	stale.lag.Store(10)
	dead := newHealthNode(t, 0, "replica")
	dead.seq.Store(99)
	dead.down.Store(true)

	reps := []string{fresh.addr(), stale.addr(), dead.addr()}
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: primary.addr(), Replicas: reps}})
	if err != nil {
		t.Fatal(err)
	}
	d := testDetector(t, ring, DetectorConfig{suspectAfter: 1})
	d.sample()

	addr, ok := d.FreshestReplica(reps, 1024)
	if !ok || addr != fresh.addr() {
		t.Fatalf("FreshestReplica = (%q, ok=%v), want the live 50-cursor replica %q", addr, ok, fresh.addr())
	}
	// A tight staleness bound disqualifies the lagging replica too; the fresh
	// one still wins even though the (dead) replica advertises a higher seq.
	if addr, ok := d.FreshestReplica(reps, 5); !ok || addr != fresh.addr() {
		t.Fatalf("FreshestReplica under lag bound 5 = (%q, ok=%v), want %q", addr, ok, fresh.addr())
	}
	// An address the view has never sampled is not a candidate.
	if addr, ok := d.FreshestReplica([]string{"127.0.0.1:1"}, 1024); ok {
		t.Fatalf("an unsampled address was chosen as failover target: %q", addr)
	}
}

// TestFailoverReadSkipsSuspectedPrimaryWithZeroInlineProbes is the regression
// test for per-request failover probing: once the detector suspects a
// primary, a read must (a) never touch the dead primary — the retry budget is
// not burned — and (b) pick its failover replica from the detector's cached
// view without a single inline /health probe. The old router re-probed every
// replica on every failed read and retried the primary to exhaustion first.
func TestFailoverReadSkipsSuspectedPrimaryWithZeroInlineProbes(t *testing.T) {
	primary := newHealthNode(t, 0, "primary")
	replica := newHealthNode(t, 0, "replica")
	replica.seq.Store(7)

	ring, err := NewRing(1, 0, []ShardInfo{
		{ID: 0, Addr: primary.addr(), Replicas: []string{replica.addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, d := detectorRouter(t, RouterConfig{
		Ring:         ring,
		suspectAfter: 2,
		// A deliberately fat retry budget: if the suspected primary were still
		// consulted, the hit counters below would show the attempts.
		attempts:     6,
		retryBackoff: time.Millisecond,
	})

	primary.down.Store(true)
	d.sample()
	d.sample()
	if row, _ := d.Node(primary.addr()); !row.Suspected {
		t.Fatalf("primary not suspected after 2 misses: %+v", row)
	}

	primaryBefore := primary.healthHits.Load() + primary.recoHits.Load()
	replicaHealthBefore := replica.healthHits.Load()

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/recommend?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read during a suspected-primary outage answered %d, want 200 via failover", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["served_by"] != "replica" {
		t.Fatalf("read served by %q, want the replica", body["served_by"])
	}

	if n := primary.healthHits.Load() + primary.recoHits.Load() - primaryBefore; n != 0 {
		t.Fatalf("the suspected primary received %d requests during the read; the detector view must skip it outright", n)
	}
	if n := replica.healthHits.Load() - replicaHealthBefore; n != 0 {
		t.Fatalf("the read performed %d inline /health probes; the failover target must come from the cached view", n)
	}
	if n := replica.recoHits.Load(); n != 1 {
		t.Fatalf("replica served %d reads, want exactly 1 (one failover round-trip)", n)
	}
}

// TestRouterOwnsItsDetector pins the wiring NewRouter does on its own: over a
// replicated ring, with no detector handed in by anyone, a failed read falls
// over from the router's cached view — zero /health GETs on the request path
// — /health's detector rows are the same view, and a replica the view
// does not cover is "no failover yet", never an inline probe.
func TestRouterOwnsItsDetector(t *testing.T) {
	primary := newHealthNode(t, 0, "primary")
	replica := newHealthNode(t, 0, "replica")
	replica.seq.Store(7)
	primary.down.Store(true)

	ring, err := NewRing(1, 0, []ShardInfo{
		{ID: 0, Addr: primary.addr(), Replicas: []string{replica.addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := detectorRouter(t, RouterConfig{Ring: ring, attempts: 1, retryBackoff: time.Millisecond})
	// NewRouter's own first sample is the only probe either node ever sees.
	if p, r := primary.healthHits.Load(), replica.healthHits.Load(); p != 1 || r != 1 {
		t.Fatalf("after NewRouter the nodes saw %d/%d /health probes, want the detector's first sample (1/1)", p, r)
	}

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/recommend?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover read answered %d, want 200 from the replica", resp.StatusCode)
	}
	if n := replica.recoHits.Load(); n != 1 {
		t.Fatalf("replica served %d reads, want 1", n)
	}
	var health HealthResponse
	resp, err = ts.Client().Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if k := slices.IndexFunc(health.Detector, func(row NodeLiveness) bool { return row.Addr == replica.addr() }); k < 0 ||
		!health.Detector[k].Alive || health.Detector[k].AppliedSeq != 7 {
		t.Fatalf("/health detector rows = %+v, want the cached alive replica row at cursor 7", health.Detector)
	}
	if n := replica.healthHits.Load(); n != 1 {
		t.Fatalf("the read and the /health aggregation issued %d replica /health GETs, want 0", n-1)
	}

	// A ring republish names a replica the view has not sampled: the read
	// fails with the primary's typed 503 instead of probing it.
	unsampled := newHealthNode(t, 0, "replica")
	ring2, err := NewRing(2, 0, []ShardInfo{
		{ID: 0, Addr: primary.addr(), Replicas: []string{unsampled.addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.ring.Store(ring2)
	resp, err = ts.Client().Get(ts.URL + "/recommend?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read with an unsampled replica set answered %d, want 503", resp.StatusCode)
	}
	if n := unsampled.healthHits.Load() + unsampled.recoHits.Load(); n != 0 {
		t.Fatalf("the unsampled replica received %d requests on the request path, want 0", n)
	}

	// A ring without replicas starts no detector at all.
	bare, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: primary.addr()}})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRouter(RouterConfig{Ring: bare})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if rt2.detector != nil {
		t.Fatal("a router over a replica-less ring started a detector")
	}
}
