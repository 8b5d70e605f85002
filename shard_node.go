package ganc

import (
	"fmt"
	"net/http"
	"sync/atomic"

	"ganc/internal/cluster"
)

// ShardNode is one node of a shard — primary or replica, the same assembly:
// a restored shard pipeline behind a server, an ingestor over the node's own
// write-ahead log, and the cursor-stream surface (POST /replicate, /migrate,
// /replicate/tail) mounted in front of the serving routes. It is the one
// place a node is wired: NewCluster boots every in-process node through it
// and cmd/gancd's shard and replica roles serve one each.
//
// A node opens in the replica role — no client write path, /replicate open,
// /migrate and /ingest refused with a typed 409, checkpoints manual-only —
// and MakePrimary is the only role flip.
type ShardNode struct {
	id              ShardIdentity
	walPath         string
	checkpointEvery int

	pipe    *Pipeline
	srv     *Server
	ing     *Ingestor
	streams *cluster.Node

	// shipper is set while the node is the primary of a replicated shard. The
	// ingestor's commit hook (fixed at construction) reads it atomically, so
	// a replica starts shipping the moment it is promoted.
	shipper atomic.Pointer[cluster.Shipper]
}

// OpenShardNode assembles a node around a loaded shard pipeline (see
// LoadShardEngine) under the given identity. walPath is the node's own
// write-ahead log ("" serves without one: nothing survives a restart and the
// node can neither ship to replicas nor answer tail pulls); checkpointPath is
// the snapshot Checkpoint rewrites, every checkpointEvery ingested events
// once the node is a primary (0 = only on request). A replica never
// checkpoints on its own: replicas of one shard may share the snapshot file
// with their primary, and two writers would race. The server options apply on
// top of the identity. Call Recover before serving when the log may hold a
// suffix past the snapshot, and Close when done.
func OpenShardNode(p *Pipeline, id ShardIdentity, walPath, checkpointPath string, checkpointEvery int, opts ...ServerOption) (*ShardNode, error) {
	n := &ShardNode{id: id, walPath: walPath, checkpointEvery: checkpointEvery, pipe: p}
	srv, err := NewServer(p.Train(), p, p.TopN(), append([]ServerOption{WithServerShardIdentity(id)}, opts...)...)
	if err != nil {
		return nil, err
	}
	ing, err := newIngestor(srv, p, ingestorConfig{logPath: walPath, checkpointPath: checkpointPath, onCommit: n.commit})
	if err != nil {
		return nil, err
	}
	n.srv, n.ing = srv, ing
	n.streams = cluster.NewNode(id.ShardID, id.RingEpoch, ing, walPath)
	srv.SetReplicationProbe(n.streams.Replica.Status)
	return n, nil
}

// commit is the node's ingestor commit hook: it forwards a committed batch
// to the current shipper, if any.
func (n *ShardNode) commit(firstSeq uint64, events []IngestEvent) {
	if sp := n.shipper.Load(); sp != nil {
		sp.Commit(firstSeq, events)
	}
}

// Recover replays the write-ahead-log suffix past the snapshot cursor and
// reports how many events it recovered.
func (n *ShardNode) Recover() (replayed int, err error) { return n.ing.Recover() }

// Seq returns the node's applied-event cursor.
func (n *ShardNode) Seq() uint64 { return n.ing.Seq() }

// validateWriteQuorum is the one quorum rule NewCluster and MakePrimary
// share: k replicas must exist to acknowledge a k-quorum write.
func validateWriteQuorum(k, replicas int) error {
	if k < 0 || k > replicas {
		return fmt.Errorf("ganc: write quorum %d outside [0, %d replicas]", k, replicas)
	}
	return nil
}

// MakePrimary flips the node into the primary role of its shard — at boot
// and at promotion alike: the client write path and the checkpoint cadence
// switch on, /migrate opens and pushed /replicate chunks are refused (a stale
// shipper from a demoted primary included), and with replicaAddrs the node
// starts shipping every committed batch to them from its current cursor,
// acknowledging a write only after writeQuorum of them hold it (0 = ship
// without waiting). The shipper assumes every replica sits at the node's
// cursor; one heartbeat round adopts their true cursors before any commit
// ships, and stragglers are caught up from the write-ahead log. Call it once,
// on a node still in the replica role.
func (n *ShardNode) MakePrimary(replicaAddrs []string, writeQuorum int) error {
	if err := validateWriteQuorum(writeQuorum, len(replicaAddrs)); err != nil {
		return err
	}
	if len(replicaAddrs) > 0 && n.walPath == "" {
		return fmt.Errorf("ganc: a replicated primary needs a write-ahead log (lagging replicas are caught up from it)")
	}
	n.srv.SetIngestSink(n.ing)
	n.ing.SetCheckpointEvery(n.checkpointEvery)
	n.streams.SetPrimary(true)
	if len(replicaAddrs) == 0 {
		n.srv.SetReplicationProbe(nil) // an unreplicated primary reports no replication status
		return nil
	}
	sp := cluster.NewShipper(cluster.ShipperConfig{
		Shard:       n.id.ShardID,
		Epoch:       n.id.RingEpoch,
		WALPath:     n.walPath,
		Replicas:    replicaAddrs,
		StartSeq:    n.ing.Seq(),
		WriteQuorum: writeQuorum,
	})
	n.shipper.Store(sp)
	n.srv.SetReplicationProbe(sp.Status)
	sp.Resync()
	return nil
}

// restamp moves the node to a new ring epoch and shard count (promotions and
// reshards bump them cluster-wide): the stream receivers and the shipper ship
// and fence under the epoch, and the server's /info identity carries it so
// the router's epoch cross-check holds.
func (n *ShardNode) restamp(id ShardIdentity) {
	n.id = id
	n.streams.SetEpoch(id.RingEpoch)
	n.srv.SetShardIdentity(id)
	if sp := n.shipper.Load(); sp != nil {
		sp.SetEpoch(id.RingEpoch)
	}
}

// Handler returns the node's HTTP surface: the serving routes behind the
// stream routes and the role gate on client writes.
func (n *ShardNode) Handler() http.Handler { return n.streams.Mount(n.srv.Handler()) }

// Close stops the node's shipper, if any, and releases its write-ahead-log
// handle. The caller closes the listener the handler is mounted on.
func (n *ShardNode) Close() error {
	if sp := n.shipper.Swap(nil); sp != nil {
		sp.Close()
	}
	return n.ing.Close()
}
