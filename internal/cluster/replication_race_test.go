package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/dataset"
	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// TestReplicationCommitRacesCatchUpAndStatus is the replication sibling of
// TestRouterScatterGatherRacesShardPublishes: per-shard primaries committing
// batches (WAL append + inline ship) race the background catch-up loops,
// Resync heartbeats, injected replica outages and concurrent status readers,
// under -race in CI. The functional assertion is exact cursor accounting:
// after the storm every replica's cursor equals its primary's WAL head, every
// committed event was applied exactly once and in order, and reported lag is
// zero — duplicates suppressed, gaps healed, nothing skipped.
func TestReplicationCommitRacesCatchUpAndStatus(t *testing.T) {
	const (
		shards     = 2
		writers    = 3
		iterations = 25
		batchLen   = 2
	)
	total := uint64(writers * iterations * batchLen)

	type shardRig struct {
		wal     *ingest.Log
		sp      *Shipper
		backend *countingBackend
		ra      *ReplicaApplier
		commit  sync.Mutex // stands in for the ingestor's lock
	}
	rigs := make([]*shardRig, shards)
	for i := range rigs {
		walPath := filepath.Join(t.TempDir(), fmt.Sprintf("shard-%03d.wal", i))
		wal, err := ingest.OpenLog(walPath)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wal.Close() })
		backend := &countingBackend{}
		ra := NewReplicaApplier(i, 1, backend)
		sp := NewShipper(ShipperConfig{
			Shard: i, Epoch: 1, WALPath: walPath,
			Replicas:    []string{replicaServer(t, ra)},
			shipTimeout: 2 * time.Second, retryBackoff: 2 * time.Millisecond, batchEvents: 7,
		})
		t.Cleanup(sp.Close)
		rigs[i] = &shardRig{wal: wal, sp: sp, backend: backend, ra: ra}
	}

	start := make(chan struct{})
	stop := make(chan struct{})
	errs := make(chan error, shards*(writers+2)*iterations)
	var wg sync.WaitGroup

	for si, rig := range rigs {
		// Writers: commit batches the way the ingestor does — WAL append and
		// post-commit hook under one lock — from several goroutines.
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(si int, rig *shardRig) {
				defer wg.Done()
				<-start
				for k := 0; k < iterations; k++ {
					rig.commit.Lock()
					first := rig.wal.Seq() + 1
					batch := evs(int(first), batchLen)
					if _, err := rig.wal.Append(batch); err != nil {
						rig.commit.Unlock()
						errs <- fmt.Errorf("shard %d: wal append: %v", si, err)
						return
					}
					rig.sp.Commit(first, batch)
					rig.commit.Unlock()
				}
			}(si, rig)
		}
		// Chaos: inject replica outages (flipping the shipper to catch-up
		// mode) and fire Resync heartbeats mid-commit-storm.
		wg.Add(1)
		go func(rig *shardRig) {
			defer wg.Done()
			<-start
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				case <-time.After(3 * time.Millisecond):
				}
				switch k % 3 {
				case 0:
					rig.backend.mu.Lock()
					rig.backend.failErr = errors.New("injected replica outage")
					rig.backend.mu.Unlock()
					time.Sleep(2 * time.Millisecond)
					rig.backend.mu.Lock()
					rig.backend.failErr = nil
					rig.backend.mu.Unlock()
				case 1:
					rig.sp.Resync()
				case 2:
					rig.sp.SetHead(rig.wal.Seq())
				}
			}
		}(rig)
		// Status readers: lag arithmetic must stay coherent mid-race.
		wg.Add(1)
		go func(si int, rig *shardRig) {
			defer wg.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				st := rig.ra.Status()
				if st.AppliedSeq > st.PrimarySeq {
					errs <- fmt.Errorf("shard %d replica: applied %d past head %d", si, st.AppliedSeq, st.PrimarySeq)
				}
				if st.LagEvents != st.PrimarySeq-st.AppliedSeq {
					errs <- fmt.Errorf("shard %d replica: lag %d != %d-%d", si, st.LagEvents, st.PrimarySeq, st.AppliedSeq)
				}
				pst := rig.sp.Status()
				if pst.AppliedSeq > total {
					errs <- fmt.Errorf("shard %d primary: head %d past total %d", si, pst.AppliedSeq, total)
				}
				for _, rl := range pst.Replicas {
					if rl.AckedSeq > total {
						errs <- fmt.Errorf("shard %d primary: acked %d past total %d", si, rl.AckedSeq, total)
					}
				}
			}
		}(si, rig)
	}

	close(start)
	// Writers finish first; then stop the chaos and status goroutines.
	waitWriters := make(chan struct{})
	go func() { wg.Wait(); close(waitWriters) }()
	deadline := time.After(30 * time.Second)
	for done := false; !done; {
		select {
		case <-waitWriters:
			done = true
		case <-time.After(5 * time.Millisecond):
			allCommitted := true
			for _, rig := range rigs {
				if rig.wal.Seq() < total {
					allCommitted = false
				}
			}
			if allCommitted {
				select {
				case <-stop:
				default:
					close(stop)
				}
			}
		case <-deadline:
			t.Fatal("commit storm did not finish in time")
		}
	}
	select {
	case <-stop:
	default:
		close(stop)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exact per-shard cursor accounting after convergence.
	for si, rig := range rigs {
		if got := rig.wal.Seq(); got != total {
			t.Fatalf("shard %d WAL head %d, want %d", si, got, total)
		}
		if err := rig.sp.WaitSync(10 * time.Second); err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		if got := rig.backend.Seq(); got != total {
			t.Fatalf("shard %d replica cursor %d, want %d", si, got, total)
		}
		st := rig.ra.Status()
		if st.LagEvents != 0 || st.AppliedSeq != total {
			t.Fatalf("shard %d replica status %+v after sync", si, st)
		}
		pst := rig.sp.Status()
		if len(pst.Replicas) != 1 || !pst.Replicas[0].InSync || pst.Replicas[0].AckedSeq != total {
			t.Fatalf("shard %d primary status %+v after sync", si, pst.Replicas)
		}
		rig.backend.mu.Lock()
		if len(rig.backend.events) != int(total) {
			rig.backend.mu.Unlock()
			t.Fatalf("shard %d applied %d events, want exactly %d", si, len(rig.backend.events), total)
		}
		for i, ev := range rig.backend.events {
			if ev.Value != float64(i+1) {
				rig.backend.mu.Unlock()
				t.Fatalf("shard %d event %d has value %v, want %d (out of order or re-applied)", si, i, ev.Value, i+1)
			}
		}
		rig.backend.mu.Unlock()
	}
}

// replicatedShard is one shard of the failover fixture: a primary and one
// warm replica, both real servers over the same universe, the replica
// reporting its replication cursor through a real applier probe.
type replicatedShard struct {
	primary *testShard
	replica *testShard
	applier *ReplicaApplier
	backend *countingBackend
}

// replicatedFixture stands up n shards, each with a live replica, and a
// router whose ring carries the replica addresses — the read-failover
// topology.
func replicatedFixture(t testing.TB, n int, opts ...func(*RouterConfig)) (*Router, []*replicatedShard) {
	t.Helper()
	const users, items = 40, 12
	build := func(shard int) (*serve.Server, *echoEngine) {
		b := dataset.NewBuilder("tiny", users)
		for u := 0; u < users; u++ {
			b.Add(fmt.Sprintf("user-%d", u), fmt.Sprintf("item-%d", u%items), 5)
		}
		eng := &echoEngine{name: "echo", items: items}
		srv, err := serve.New(b.Build(), eng, 3,
			serve.WithShardIdentity(serve.ShardIdentity{ShardID: shard, NumShards: n, RingEpoch: 1}))
		if err != nil {
			t.Fatal(err)
		}
		return srv, eng
	}
	shards := make([]*replicatedShard, n)
	infos := make([]ShardInfo, n)
	for i := 0; i < n; i++ {
		psrv, peng := build(i)
		pts := httptest.NewServer(psrv.Handler())
		t.Cleanup(pts.Close)

		rsrv, reng := build(i)
		backend := &countingBackend{}
		applier := NewReplicaApplier(i, 1, backend)
		rsrv.SetReplicationProbe(applier.Status)
		mux := http.NewServeMux()
		mux.Handle(ShardSpace.Route, streamHandler(ShardSpace, applier))
		mux.Handle("/", rsrv.Handler())
		rts := httptest.NewServer(mux)
		t.Cleanup(rts.Close)

		shards[i] = &replicatedShard{
			primary: &testShard{srv: psrv, eng: peng, ts: pts},
			replica: &testShard{srv: rsrv, eng: reng, ts: rts},
			applier: applier,
			backend: backend,
		}
		infos[i] = ShardInfo{
			ID:       i,
			Addr:     strings.TrimPrefix(pts.URL, "http://"),
			Replicas: []string{strings.TrimPrefix(rts.URL, "http://")},
		}
	}
	ring, err := NewRing(1, 0, infos)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RouterConfig{Ring: ring, Retries: 1, retryBackoff: 2 * time.Millisecond, probeTimeout: 2 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, shards
}

// TestRouterFailoverReadsRaceHealthAggregation kills one shard's primary and
// hammers the router with single-user reads for every shard plus /health
// aggregation, concurrently, under -race in CI. Every read must succeed —
// the dead primary's reads served by its replica, the live shard's by its
// primary — and the accounting is exact: the dead shard's replica computes
// exactly its shard's successful reads, the live shard's replica computes
// none, and /health reports the dead primary down while both replicas stay
// healthy with zero lag.
func TestRouterFailoverReadsRaceHealthAggregation(t *testing.T) {
	rt, shards := replicatedFixture(t, 2)
	ts := routerServer(t, rt)

	// Partition the fixture users by owning shard.
	byShard := make([][]string, len(shards))
	for u := 0; u < 40; u++ {
		user := fmt.Sprintf("user-%d", u)
		owner := rt.Owner(user)
		byShard[owner] = append(byShard[owner], user)
	}
	for i, us := range byShard {
		if len(us) == 0 {
			t.Fatalf("fixture users do not cover shard %d", i)
		}
	}

	// Kill shard 0's primary. From here every shard-0 read must fail over.
	const dead = 0
	shards[dead].primary.ts.Close()

	const (
		readers    = 4
		iterations = 15
	)
	start := make(chan struct{})
	errs := make(chan error, readers*3*iterations)
	served := make([]atomic.Int64, len(shards))
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		for si := range shards {
			wg.Add(1)
			go func(r, si int) {
				defer wg.Done()
				<-start
				users := byShard[si]
				for k := 0; k < iterations; k++ {
					user := users[(r+k)%len(users)]
					var out serve.RecommendResponse
					status := getJSON(t, ts.URL+"/recommend?user="+user, &out)
					if status != http.StatusOK {
						errs <- fmt.Errorf("reader %d shard %d: status %d for %s", r, si, status, user)
						continue
					}
					if len(out.Items) == 0 {
						errs <- fmt.Errorf("reader %d shard %d: empty answer for %s", r, si, user)
						continue
					}
					served[si].Add(1)
				}
			}(r, si)
		}
		// Health readers: aggregation stays coherent while reads fail over.
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for k := 0; k < iterations; k++ {
				var health HealthResponse
				if status := getJSON(t, ts.URL+"/health", &health); status != http.StatusOK {
					errs <- fmt.Errorf("health reader %d: status %d", r, status)
					continue
				}
				if health.Status != "degraded" || health.Healthy != len(shards)-1 {
					errs <- fmt.Errorf("health reader %d: %q with %d healthy", r, health.Status, health.Healthy)
				}
				if len(health.Down) != 1 || health.Down[0] != dead {
					errs <- fmt.Errorf("health reader %d: down list %v", r, health.Down)
				}
				if len(health.Replicas) != len(shards) {
					errs <- fmt.Errorf("health reader %d: %d replica rows, want %d", r, len(health.Replicas), len(shards))
					continue
				}
				for _, row := range health.Replicas {
					if !row.Healthy {
						errs <- fmt.Errorf("health reader %d: replica %d/%s unhealthy: %s", r, row.Shard, row.Addr, row.Error)
					}
					if row.LagEvents != 0 {
						errs <- fmt.Errorf("health reader %d: replica %d lags %d events on an idle cluster", r, row.Shard, row.LagEvents)
					}
				}
			}
		}(r)
	}

	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exact accounting: every read succeeded, the dead shard's replica served
	// exactly its shard's reads, the live shard's replica served none. Each
	// server's TopN cache computes one engine call per distinct user, so the
	// expected compute count is the distinct-user set each shard saw.
	want := int64(readers * iterations)
	for si := range shards {
		if got := served[si].Load(); got != want {
			t.Fatalf("shard %d: %d successful reads, want %d", si, got, want)
		}
	}
	distinct := func(si int) int64 {
		seen := map[int]bool{}
		for r := 0; r < readers; r++ {
			for k := 0; k < iterations; k++ {
				seen[(r+k)%len(byShard[si])] = true
			}
		}
		return int64(len(seen))
	}
	if got, want := shards[dead].replica.eng.computes.Load(), distinct(dead); got != want {
		t.Fatalf("dead shard's replica computed %d distinct reads, want exactly %d", got, want)
	}
	if got := shards[1].replica.eng.computes.Load(); got != 0 {
		t.Fatalf("live shard's replica computed %d reads, want 0", got)
	}
	if got, want := shards[1].primary.eng.computes.Load(), distinct(1); got != want {
		t.Fatalf("live shard's primary computed %d distinct reads, want exactly %d", got, want)
	}
}

// TestShipperAndDetectorShutdownLeakNoGoroutines is the goroutine-leak census
// for the two background machines this package runs: a Shipper's per-replica
// catch-up loops (plus a quorum-blocked Commit) and a Detector's sampling
// loop with a suspicion callback in flight. Several construct/exercise/Close
// rounds must return the process to its pre-round goroutine count — a Close
// that forgets a catch-up loop, a quorum wait, or a callback goroutine shows
// up as a monotonic leak here, under -race in CI.
func TestShipperAndDetectorShutdownLeakNoGoroutines(t *testing.T) {
	// The fixture servers (replica endpoint, health node) go up before the
	// baseline so their accept loops are part of it; per-round keep-alive
	// connections are drained explicitly below.
	backend := &countingBackend{}
	ra := NewReplicaApplier(0, 1, backend)
	repAddr := replicaServer(t, ra)
	primary := newHealthNode(t, 0, "primary")
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: primary.addr(), Replicas: []string{repAddr}}})
	if err != nil {
		t.Fatal(err)
	}
	primary.down.Store(true) // every detector round drives a suspicion callback

	waitBaseline := func(base int) error {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= base {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("goroutines: %d, baseline %d", runtime.NumGoroutine(), base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	base := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		walPath := filepath.Join(t.TempDir(), "census.wal")
		wal, err := ingest.OpenLog(walPath)
		if err != nil {
			t.Fatal(err)
		}
		sp := NewShipper(ShipperConfig{
			Shard: 0, Epoch: 1, WALPath: walPath,
			Replicas:    []string{repAddr, "127.0.0.1:1"}, // one live, one unreachable: its catch-up loop spins until Close
			WriteQuorum: 2, quorumTimeout: 20 * time.Millisecond,
			shipTimeout: 100 * time.Millisecond, retryBackoff: 2 * time.Millisecond,
			StartSeq: wal.Seq(),
		})
		first := wal.Seq() + 1
		batch := evs(int(first), 3)
		if _, err := wal.Append(batch); err != nil {
			t.Fatal(err)
		}
		// The unreachable replica can never ack, so this Commit exercises the
		// quorum wait through its timeout-degrade path.
		sp.Commit(first, batch)
		sp.Resync()
		if n := sp.Status().QuorumTimeouts; n == 0 {
			t.Fatalf("round %d: commit against an unreachable quorum peer recorded no quorum timeout", round)
		}

		var fired sync.WaitGroup
		fired.Add(1)
		d := NewDetector(DetectorConfig{
			Ring:         func() *Ring { return ring },
			Interval:     5 * time.Millisecond,
			probeTimeout: 100 * time.Millisecond,
			SuspectAfter: 1,
			OnSuspectPrimary: func(int, string) {
				fired.Done()
			},
		})
		fired.Wait() // a callback goroutine ran; Close must also have waited for it

		d.Close()
		d.Close() // idempotent
		sp.Close()
		sp.Close()
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		// Keep-alive connections opened this round hold transport goroutines;
		// they are owned by the clients the closed machines leave behind.
		sp.client.CloseIdleConnections()
		d.client.CloseIdleConnections()
		if err := waitBaseline(base); err != nil {
			t.Fatalf("round %d leaked: %v", round, err)
		}
	}
}
