package ganc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/ingest"
)

// walUserCounts counts, per user accepted by keep (nil keeps everyone), how
// many events the write-ahead log at path holds (empty for a missing log).
func walUserCounts(path string, keep func(string) bool) (map[string]uint64, error) {
	counts := make(map[string]uint64)
	err := ingest.ReplayLog(path, 0, func(_ uint64, ev IngestEvent) error {
		if keep == nil || keep(ev.User) {
			counts[ev.User]++
		}
		return nil
	})
	return counts, err
}

// shardSnapshotCursor reads the ingestion cursor out of a shard snapshot.
func shardSnapshotCursor(path string) (uint64, error) {
	pipe, _, err := LoadShardEngine(path)
	if err != nil {
		return 0, err
	}
	return pipe.ingestSeq, nil
}

// TestClusterRejoinBootsAtTheCursorItRepairedTo is the regression test for
// the rejoin's double snapshot read. A rejoin holds only the topology lock,
// which does not stop the live primary from checkpointing into the snapshot
// file the rejoining node boots from. The test makes a checkpoint land at the
// one point both the old and the new code pass between "read the cursor" and
// "boot": the tail pull, proxied here. The old code read the file again at
// boot, came up at the later cursor over a log repaired only to the earlier
// one, and appended the next replicated chunk under the wrong record numbers;
// the node must instead boot the pipeline whose cursor the log was repaired
// to and end with every record, in place.
func TestClusterRejoinBootsAtTheCursorItRepairedTo(t *testing.T) {
	c, ts := replicatedTestCluster(t, WithShards(1), WithReplicas(1), WithClusterCheckpointEvery(10))
	// send is postIngest for events valued from..from+n-1, returning its error
	// so the proxy's handler goroutine can use it too.
	send := func(from, n int) error {
		evs := make([]IngestEvent, n)
		for k := range evs {
			evs[k] = IngestEvent{User: fmt.Sprintf("u-%d", k%7), Item: fmt.Sprintf("it-%d", k%5), Value: float64(from + k)}
		}
		body, _ := json.Marshal(map[string]interface{}{"events": evs})
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest answered %d", resp.StatusCode)
		}
		return nil
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(send(0, 25))
	killAndPromote(t, c, 0)
	must(send(25, 25)) // the promoted primary checkpoints at 50
	sh := c.shards[0]
	dead := sh.replicas[0]
	must(os.Remove(dead.walPath)) // the log is short of the snapshot: the rejoin must pull

	// The proxy stands where the rejoin looks for the primary's tail route. It
	// relays the pull, and before it hands the answer back it ingests one more
	// checkpoint interval through the router, so the snapshot file moves from
	// cursor 50 to 60 while the rejoin is between its cursor read and its boot.
	primary := sh.primary.addr
	var pulls atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post("http://"+primary+r.URL.Path, "application/json", r.Body)
		if err != nil {
			t.Error(err)
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		answer, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if pulls.Add(1) == 1 {
			if err := send(50, 10); err != nil {
				t.Error(err)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(answer)
	}))
	defer proxy.Close()
	sh.primary.addr = strings.TrimPrefix(proxy.URL, "http://")
	_, err := c.RejoinAsReplica(0)
	sh.primary.addr = primary
	if err != nil {
		t.Fatalf("rejoin across a checkpoint: %v", err)
	}
	if pulls.Load() == 0 {
		t.Fatal("the rejoin never pulled through the proxy; the test no longer opens the window it is about")
	}
	if seq, err := shardSnapshotCursor(sh.snapPath); err != nil || seq != 60 {
		t.Fatalf("snapshot cursor %d (%v) after the in-window checkpoint, want 60", seq, err)
	}

	must(send(60, 10))
	must(c.WaitForReplicaSync(5 * time.Second))
	// Record n of the rejoined log is global event n: all 70, values in order.
	values, err := walValues(dead.walPath)
	must(err)
	if len(values) != 70 {
		t.Fatalf("rejoined log holds %d records, want all 70 (booted past the cursor the log was repaired to)", len(values))
	}
	for k, v := range values {
		if v != float64(k) {
			t.Fatalf("rejoined log record %d carries event %v, want %d", k+1, v, k)
		}
	}
}

// walValues lists every logged event's value, in log order.
func walValues(path string) ([]float64, error) {
	var values []float64
	err := ingest.ReplayLog(path, 0, func(_ uint64, ev IngestEvent) error {
		values = append(values, ev.Value)
		return nil
	})
	return values, err
}

// TestClusterSaveAndWaitReadyDuringTopologyChanges runs SaveShards and
// WaitReady, which used to walk the shard table unlocked, against the two
// things that rewrite it: a promotion (swaps a shard's primary slot) and a
// grow (appends shards). Under -race the unlocked walk is a reported race.
func TestClusterSaveAndWaitReadyDuringTopologyChanges(t *testing.T) {
	c, _ := replicatedTestCluster(t, WithShards(2), WithReplicas(1))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A dead primary legitimately times WaitReady out; only the walk
			// itself is under test here.
			_ = c.SaveShards()
			_ = c.WaitReady(20 * time.Millisecond)
		}
	}()
	killAndPromote(t, c, 0)
	if _, err := c.Reshard(3); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveShards(); err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 3 {
		t.Fatalf("cluster has %d shards after the grow, want 3", c.NumShards())
	}
}
