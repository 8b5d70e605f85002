package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// Per-shard primary→replica replication. The primary's JSON-lines write-ahead
// log is already a replication log — record n is the n-th event the shard ever
// committed — so replication is the cursor stream (stream.go) in the shard key
// space: the primary ships committed batches to each replica over POST
// /replicate, the replica replays them through the same Ingestor machinery
// that serves its reads, and both sides agree on progress through one number,
// the applied-sequence cursor. This file holds what is replication's own: the
// replica's head/lag tracking and the primary's shipper (inline ship, quorum
// wait, per-replica WAL catch-up loops).

// ReplicaApplier is the replica side of the shard stream: a receiver whose
// cursor is the backend's applied sequence, plus the last head the primary
// announced — the difference is the replica's lag. One applier guards one
// shard's replica.
type ReplicaApplier struct {
	receiver
	primarySeq atomic.Uint64
}

// NewReplicaApplier builds the applier for one shard's replica. The initial
// primary head is assumed equal to the backend's cursor (zero lag) until the
// first chunk announces a newer one.
func NewReplicaApplier(shard int, epoch uint64, backend ReplicaBackend) *ReplicaApplier {
	ra := &ReplicaApplier{receiver: receiver{space: ShardSpace, shard: shard, backend: backend}}
	ra.epoch.Store(epoch)
	ra.primarySeq.Store(backend.Seq())
	return ra
}

// Cursor returns the replica's applied cursor (the shard stream has no keys).
func (ra *ReplicaApplier) Cursor(string) uint64 { return ra.backend.Seq() }

// Apply runs one /replicate chunk through the stream rules. The ack always
// carries the replica's cursor; the error (when non-nil) wraps one of the
// ErrStream* sentinels, or the backend's own failure. A refused gap's head
// announcement still counts toward lag.
func (ra *ReplicaApplier) Apply(ctx context.Context, c *Chunk) (Ack, error) {
	if err := ra.fence(c); err != nil {
		return Ack{Cursor: ra.backend.Seq()}, err
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	storeMax(&ra.primarySeq, c.Head)
	if n := uint64(len(c.Events)); n > 0 {
		storeMax(&ra.primarySeq, c.First+n-1)
	}
	ack, err := ra.sequence(ctx, c, ra.backend.Seq())
	ack.Cursor = ra.backend.Seq()
	return ack, err
}

// Status reports the replica's replication status for /health and /metrics.
func (ra *ReplicaApplier) Status() serve.ReplicationStatus {
	applied := ra.backend.Seq()
	head := ra.primarySeq.Load()
	if head < applied {
		head = applied
	}
	return serve.ReplicationStatus{
		Role:       "replica",
		AppliedSeq: applied,
		PrimarySeq: head,
		LagEvents:  head - applied,
	}
}

// --- Primary-side shipper ------------------------------------------------------

// ShipperConfig assembles a Shipper.
type ShipperConfig struct {
	// Shard and Epoch identify the primary's place in the ring.
	Shard int
	Epoch uint64
	// Log is the primary's open write-ahead log — the catch-up source.
	Log *ingest.Log
	// Replicas lists the replica addresses to ship to.
	Replicas []string
	// StartSeq is the primary's committed cursor at construction (the
	// snapshot cursor on a fresh boot). Replica positions are assumed equal
	// until their first response corrects the guess.
	StartSeq uint64
	// WriteQuorum, when > 0, makes Commit block until that many replicas
	// have acknowledged the batch's head — a k-of-n durability guarantee:
	// a quorum-acked write survives the loss of any n-k replicas plus the
	// primary. Zero keeps the legacy fire-and-forget semantics (inline ship
	// to in-sync replicas, background catch-up for the rest). Clamped to
	// the replica count.
	WriteQuorum int

	// Pacing only the package's tests change. shipTimeout bounds one
	// /replicate call (default 2s); retryBackoff is the catch-up loop's pause
	// after a failed ship (default 100ms); batchEvents is the catch-up chunk
	// size (default 1024, capped at MaxReplicateEvents). quorumTimeout bounds
	// Commit's quorum wait (default 2s): on expiry the commit degrades to
	// asynchronous catch-up — the client write has already been accepted by
	// the time the hook runs, so stalling it forever would turn a replica
	// outage into a primary outage. Expiries are counted in the replication
	// status.
	shipTimeout   time.Duration
	retryBackoff  time.Duration
	batchEvents   int
	quorumTimeout time.Duration
}

// Shipper is the primary side of the protocol: it forwards each committed
// batch to every replica inline (hooked into the ingestor's post-commit
// path), and falls back to a per-replica background catch-up loop — read the
// WAL from the replica's acknowledged cursor, ship chunks until drained —
// whenever a replica is down, behind, or answers with a gap. A replica
// therefore lags only while it is actually unreachable, and re-converges
// without operator action.
type Shipper struct {
	cfg     ShipperConfig
	hop     *hop
	timeout time.Duration
	backoff time.Duration
	batch   int

	quorum   int
	qTimeout time.Duration

	head           atomic.Uint64
	epoch          atomic.Uint64
	quorumTimeouts atomic.Int64

	reps []*shipperReplica
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// shipperReplica is the shipper's per-replica progress record.
type shipperReplica struct {
	addr string
	wake chan struct{}

	mu      sync.Mutex
	acked   uint64
	insync  bool
	lastErr string
}

// NewShipper builds the shipper and starts one catch-up goroutine per
// replica. Close releases them.
func NewShipper(cfg ShipperConfig) *Shipper {
	sp := &Shipper{
		cfg:     cfg,
		hop:     newHop(nil),
		timeout: cfg.shipTimeout,
		backoff: cfg.retryBackoff,
		batch:   cfg.batchEvents,
		stop:    make(chan struct{}),
	}
	if sp.timeout <= 0 {
		sp.timeout = 2 * time.Second
	}
	if sp.backoff <= 0 {
		sp.backoff = 100 * time.Millisecond
	}
	if sp.batch <= 0 || sp.batch > MaxReplicateEvents {
		sp.batch = 1024
	}
	sp.quorum = cfg.WriteQuorum
	if sp.quorum > len(cfg.Replicas) {
		sp.quorum = len(cfg.Replicas)
	}
	sp.qTimeout = cfg.quorumTimeout
	if sp.qTimeout <= 0 {
		sp.qTimeout = 2 * time.Second
	}
	sp.head.Store(cfg.StartSeq)
	sp.epoch.Store(cfg.Epoch)
	for _, addr := range cfg.Replicas {
		rep := &shipperReplica{addr: addr, wake: make(chan struct{}, 1), acked: cfg.StartSeq, insync: true}
		sp.reps = append(sp.reps, rep)
		sp.wg.Add(1)
		go sp.catchUp(rep)
	}
	return sp
}

// Commit is the ingestor's post-commit hook: it advances the committed head
// and ships the batch to every in-sync replica inline. Failures never
// propagate — a failing replica is flipped to catch-up mode and re-fed from
// the WAL by its background loop.
func (sp *Shipper) Commit(firstSeq uint64, events []serve.IngestEvent) {
	if len(events) == 0 {
		return
	}
	newHead := firstSeq + uint64(len(events)) - 1
	storeMax(&sp.head, newHead)
	for _, rep := range sp.reps {
		rep.mu.Lock()
		insync := rep.insync
		rep.mu.Unlock()
		if insync {
			ack, err := sp.ship(rep.addr, firstSeq, newHead, events)
			insync = rep.settle(ack, err)
		}
		if !insync {
			rep.poke()
		}
	}
	if sp.quorum > 0 && !sp.waitQuorum(newHead) {
		sp.quorumTimeouts.Add(1)
	}
}

// settle folds one ship's outcome into the replica's progress record and
// reports whether it is still in sync: a transport failure or refusal keeps
// the acknowledged cursor, a gap rewinds it to the replica's answer (the
// replica moved backwards — a restart), an ack advances it. Failures and
// gaps both leave the replica to the catch-up loop; lastErr is the failure
// of the last exchange, cleared by any answer.
func (r *shipperReplica) settle(ack *Ack, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case err != nil:
		r.insync = false
		r.lastErr = err.Error()
		return false
	case ack.Gap:
		r.insync = false
		r.acked = ack.Cursor
	case ack.Cursor > r.acked:
		r.acked = ack.Cursor
	}
	r.lastErr = ""
	return r.insync
}

// ackedAtLeast counts replicas whose acknowledged cursor has reached seq.
func (sp *Shipper) ackedAtLeast(seq uint64) int {
	n := 0
	for _, rep := range sp.reps {
		rep.mu.Lock()
		if rep.acked >= seq {
			n++
		}
		rep.mu.Unlock()
	}
	return n
}

// waitQuorum blocks until WriteQuorum replicas have acknowledged seq, the
// quorum timeout expires, or the shipper closes. The inline ship in Commit
// usually satisfies it immediately; the wait only bites while replicas are
// catching up, when durability rides on the background loops.
func (sp *Shipper) waitQuorum(seq uint64) bool {
	deadline := time.Now().Add(sp.qTimeout)
	for {
		if sp.ackedAtLeast(seq) >= sp.quorum {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-sp.stop:
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// SetEpoch moves the shipper to a new ring epoch.
func (sp *Shipper) SetEpoch(epoch uint64) { sp.epoch.Store(epoch) }

// Resync probes every replica with one heartbeat and adopts each answered
// cursor as its acknowledged position — the handshake-by-heartbeat for when
// the shipper's positional guess may be wrong (primary restart, node
// rejoin). Replicas that do not answer, or answer from behind the head, are
// flipped to catch-up mode.
func (sp *Shipper) Resync() {
	for _, rep := range sp.reps {
		if insync, _ := sp.heartbeat(rep); !insync {
			rep.poke()
		}
	}
}

// heartbeat ships one replica an empty chunk announcing the committed head
// and adopts the cursor it answers as its acknowledged position. It reports
// whether that put the replica in sync (it answered, holding the head) and
// the failure of an unanswered heartbeat, which keeps the cursor.
func (sp *Shipper) heartbeat(rep *shipperReplica) (insync bool, err error) {
	head := sp.head.Load()
	ack, err := sp.ship(rep.addr, 0, head, nil)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if err != nil {
		rep.insync = false
		rep.lastErr = err.Error()
		return false, err
	}
	rep.acked = ack.Cursor
	rep.insync = ack.Cursor >= head
	rep.lastErr = ""
	return rep.insync, nil
}

// Head returns the committed head the shipper replicates up to.
func (sp *Shipper) Head() uint64 { return sp.head.Load() }

// Status reports the primary's replication status — head cursor plus every
// replica's acknowledged position — for /health and /metrics.
func (sp *Shipper) Status() serve.ReplicationStatus {
	head := sp.head.Load()
	st := serve.ReplicationStatus{Role: "primary", AppliedSeq: head, PrimarySeq: head}
	acked := make([]uint64, 0, len(sp.reps))
	for _, rep := range sp.reps {
		rep.mu.Lock()
		lag := uint64(0)
		if head > rep.acked {
			lag = head - rep.acked
		}
		st.Replicas = append(st.Replicas, serve.ReplicaLag{
			Addr: rep.addr, AckedSeq: rep.acked, LagEvents: lag, InSync: rep.insync, Error: rep.lastErr})
		acked = append(acked, rep.acked)
		rep.mu.Unlock()
	}
	if sp.quorum > 0 {
		st.WriteQuorum = sp.quorum
		st.QuorumAckedSeq = kthLargest(acked, sp.quorum)
		st.QuorumTimeouts = sp.quorumTimeouts.Load()
	}
	return st
}

// kthLargest returns the k-th largest value in vs — with replica cursors,
// the highest sequence at least k replicas have reached.
func kthLargest(vs []uint64, k int) uint64 {
	if k <= 0 || k > len(vs) {
		return 0
	}
	sorted := append([]uint64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	return sorted[k-1]
}

// MaxLag returns the widest replica lag in events (0 with no replicas).
func (sp *Shipper) MaxLag() uint64 {
	var max uint64
	for _, r := range sp.Status().Replicas {
		if r.LagEvents > max {
			max = r.LagEvents
		}
	}
	return max
}

// WaitSync blocks until every replica has acknowledged the committed head,
// or the timeout expires (returning the stalled status as an error).
func (sp *Shipper) WaitSync(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if sp.MaxLag() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			st, _ := json.Marshal(sp.Status())
			return fmt.Errorf("cluster: replicas did not catch up within %v: %s", timeout, st)
		}
		select {
		case <-sp.stop:
			return fmt.Errorf("cluster: shipper closed while waiting for sync")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close stops the catch-up loops and drops the hop's idle connections. Safe
// to call more than once.
func (sp *Shipper) Close() {
	sp.once.Do(func() { close(sp.stop) })
	sp.wg.Wait()
	sp.hop.Close()
}

// poke wakes the replica's catch-up loop without blocking.
func (r *shipperReplica) poke() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// sleep pauses the catch-up loop, returning false when the shipper closed.
func (sp *Shipper) sleep(d time.Duration) bool {
	select {
	case <-sp.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// catchUp is the per-replica background loop: whenever woken it reads the WAL
// from the replica's acknowledged cursor — through the primary's open log,
// one chunk costing its own records — and ships chunks until the replica has
// the committed head, then flips it back to in-sync shipping. Only an answer
// does that: a replica whose last exchange failed with nothing left to ship
// is sent heartbeats, the backoff apart, until one is answered.
func (sp *Shipper) catchUp(rep *shipperReplica) {
	defer sp.wg.Done()
	for {
		select {
		case <-sp.stop:
			return
		case <-rep.wake:
		}
		for {
			select {
			case <-sp.stop:
				return
			default:
			}
			head := sp.head.Load()
			rep.mu.Lock()
			acked := rep.acked
			done := acked >= head && rep.lastErr == ""
			if done {
				rep.insync = true
			}
			rep.mu.Unlock()
			if done {
				break
			}
			var err error
			if acked >= head {
				// Nothing is left to ship, but the last exchange failed: a
				// heartbeat asks the replica where it stands.
				_, err = sp.heartbeat(rep)
			} else {
				// One chunk: (acked, min(head, acked+batch)].
				var events []serve.IngestEvent
				events, err = sp.cfg.Log.ReadRange(acked, min(head, acked+uint64(sp.batch)))
				var ack *Ack
				if err == nil {
					ack, err = sp.ship(rep.addr, acked+1, head, events)
				}
				rep.settle(ack, err)
			}
			if err != nil && !sp.sleep(sp.backoff) {
				return
			}
		}
	}
}

// ship pushes one /replicate chunk (a heartbeat when events is empty).
func (sp *Shipper) ship(addr string, firstSeq, head uint64, events []serve.IngestEvent) (*Ack, error) {
	return shipChunk(sp.hop, addr, sp.timeout, ShardSpace,
		&Chunk{Shard: sp.cfg.Shard, Epoch: sp.epoch.Load(), First: firstSeq, Head: head, Events: events})
}
