package ganc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nodeLog reads every record of a live node's write-ahead log through the
// log the node holds open.
func nodeLog(n *clusterNode) ([]IngestEvent, error) {
	wal := n.node.ing.Log()
	return wal.ReadRange(0, wal.Seq())
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
// the rejoin's double snapshot read. A rejoin holds only the node-table lock,
// which does not stop the live primary from checkpointing into the snapshot
// file the rejoining node boots from. The test makes a checkpoint land at the
// one point both the old and the new code pass between "read the cursor" and
// "boot": the tail pull, proxied here — the rejoin's reboot is handed a ring
// that names the proxy as the shard's primary. The old code read the file
// again at boot, came up at the later cursor over a log repaired only to the
// earlier one, and appended the next replicated chunk under the wrong record
// numbers; the node must instead boot the pipeline whose cursor the log was
// repaired to and end with every record, in place.
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
	dead := sh.node(c.ReplicaAddr(0, 0))
	must(os.Remove(dead.walPath)) // the log is short of the snapshot: the rejoin must pull

	// The proxy stands where the rejoin looks for the primary's tail route: a
	// relay of every connection to the primary, which holds the first answer
	// frame back until it has ingested one more checkpoint interval through
	// the router, so the snapshot file moves from cursor 50 to 60 while the
	// rejoin is between its cursor read and its boot.
	primary := c.ShardAddr(0)
	var pulls atomic.Int32
	relay := func(down, up net.Conn) {
		defer down.Close()
		br := bufio.NewReader(up)
		for { // the upgrade's answer, through its blank line
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if _, err := down.Write(line); err != nil {
				return
			}
			if len(bytes.TrimSpace(line)) == 0 {
				break
			}
		}
		var hdr [6]byte // an answer frame: its body length and status, then the body
		for {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			frame := append(hdr[:], make([]byte, binary.BigEndian.Uint32(hdr[:4]))...)
			if _, err := io.ReadFull(br, frame[len(hdr):]); err != nil {
				return
			}
			if pulls.Add(1) == 1 {
				if err := send(50, 10); err != nil {
					t.Error(err)
				}
			}
			if _, err := down.Write(frame); err != nil {
				return
			}
		}
	}
	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	defer proxy.Close()
	go func() {
		for {
			down, err := proxy.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", primary)
			if err != nil {
				t.Error(err)
				down.Close()
				continue
			}
			go func() { _, _ = io.Copy(up, down); up.Close() }()
			go relay(down, up)
		}
	}()
	infos := c.Ring().Shards()
	infos[0].Addr = proxy.Addr().String()
	viaProxy, err := NewRing(c.Epoch(), infos)
	must(err)
	c.mu.Lock()
	_, err = c.rebootNode(sh, dead, viaProxy)
	c.mu.Unlock()
	if err != nil {
		t.Fatalf("rejoin across a checkpoint: %v", err)
	}
	sh.node(primary).node.shipper.Load().Resync() // as RejoinAsReplica does after the reboot
	if pulls.Load() == 0 {
		t.Fatal("the rejoin never pulled through the proxy; the test no longer opens the window it is about")
	}
	if seq, err := shardSnapshotCursor(sh.snapPath); err != nil || seq != 60 {
		t.Fatalf("snapshot cursor %d (%v) after the in-window checkpoint, want 60", seq, err)
	}

	must(send(60, 10))
	must(c.WaitForReplicaSync(5 * time.Second))
	// Record n of the rejoined log is global event n: all 70, values in order.
	events, err := nodeLog(dead)
	must(err)
	if len(events) != 70 {
		t.Fatalf("rejoined log holds %d records, want all 70 (booted past the cursor the log was repaired to)", len(events))
	}
	for k, ev := range events {
		if ev.Value != float64(k) {
			t.Fatalf("rejoined log record %d carries event %v, want %d", k+1, ev.Value, k)
		}
	}
}

// TestClusterSaveAndWaitReadyDuringTopologyChanges runs SaveShards and
// WaitReady, which used to walk the shard table unlocked, against the two
// things that rewrite it: a promotion (re-points a shard's primary) and a
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
