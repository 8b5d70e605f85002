package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ganc/internal/serve"
)

// Live migration: the protocol that moves a user between shards when the ring
// grows or shrinks. Every shard holds the full trained model, so moving a
// user means moving only what the model does not have — the user's ingested
// interaction history, which the old owner's append-only write-ahead log
// holds in per-user order. The router reads every involved log over POST
// /replicate/tail and ships the part of each moving user's history its new
// owner lacks over POST /migrate — the cursor stream (stream.go) in the user
// key space: one cursor per user and transfer, positions indexing the shipped
// part — and the new owner folds it through the same Ingestor machinery that
// serves its reads (so the events land in the new owner's own WAL, durable
// and replicated, before the router flips the user). Nothing is read by path:
// the router reaches every node over its hop alone. This file holds what is
// migration's own: the epoch-scoped per-user cursors, the sender's chunk
// iteration, the ring delta, and the staged cutover that sequences them
// (Router.Reshard).

// MigrationApplier is the destination side of the user stream: a receiver
// with one cursor per moving user, plus the count of events applied that the
// race suite reads. A transfer's cursors live for its epoch: a chunk from a
// newer epoch — a new reshard, or a retry of an aborted one — starts every
// cursor over, because the sender counts what the node holds afresh for each
// attempt. One applier guards one shard node; only a primary's accepts chunks.
type MigrationApplier struct {
	receiver
	at      uint64 // the epoch cursors belong to
	cursors map[string]uint64
	events  atomic.Int64
}

// NewMigrationApplier builds the applier for one shard node, accepting
// chunks from ring epoch `epoch` onward.
func NewMigrationApplier(shard int, epoch uint64, backend ReplicaBackend) *MigrationApplier {
	ma := &MigrationApplier{
		receiver: receiver{space: UserSpace, shard: shard, backend: backend},
		at:       epoch,
		cursors:  make(map[string]uint64),
	}
	ma.epoch.Store(epoch)
	return ma
}

// Cursor returns the applier's cursor into the user's history (0 when the
// user is unknown).
func (ma *MigrationApplier) Cursor(user string) uint64 {
	ma.mu.Lock()
	defer ma.mu.Unlock()
	return ma.cursors[user]
}

// EventsApplied returns how many migrated events the applier has fed to its
// backend — the exact-accounting counter the race suite pins.
func (ma *MigrationApplier) EventsApplied() int64 { return ma.events.Load() }

// Apply runs one /migrate chunk through the stream rules at the user's
// cursor. The ack always carries that cursor; the error (when non-nil) wraps
// one of the ErrStream* sentinels, or the backend's own failure. Done is
// reported once the cursor has reached the announced history length.
func (ma *MigrationApplier) Apply(ctx context.Context, c *Chunk) (Ack, error) {
	if err := ma.fence(c); err != nil {
		return Ack{Key: c.Key, Cursor: ma.Cursor(c.Key)}, err
	}
	ma.mu.Lock()
	defer ma.mu.Unlock()
	switch {
	case c.Epoch < ma.at: // a newer transfer began between the fence and the lock
		return Ack{Key: c.Key, Cursor: ma.cursors[c.Key]},
			fmt.Errorf("%w: chunk from epoch %d, the node's transfer is at epoch %d", ErrStreamEpoch, c.Epoch, ma.at)
	case c.Epoch > ma.at:
		clear(ma.cursors)
		ma.at = c.Epoch
	}
	ack, err := ma.sequence(ctx, c, ma.cursors[c.Key])
	if err != nil {
		return ack, err
	}
	ack.Done = c.Head > 0 && ack.Cursor >= c.Head
	if ack.Applied > 0 {
		ma.cursors[c.Key] = ack.Cursor
		ma.events.Add(int64(ack.Applied))
	}
	return ack, nil
}

// --- Sender side ---------------------------------------------------------------

// shipUserHistory streams the events of one user's history its next owner
// lacks over POST /migrate in cursor-sequenced chunks of batch events,
// converging on the destination's acknowledged cursor: duplicates advance it
// for free, gap refusals rewind the send position, and transient transport
// failures are retried with backoff. It returns how many events the
// destination actually applied (0 when a re-ship finds them all acknowledged).
//
// The per-chunk timeout is generous: during a reshard under saturating load
// the destination queues migration posts behind cold-cache serving traffic,
// and a couple of seconds can expire on queueing alone. Patience here is
// invisible to clients — reads keep double-dispatching to the old owner until
// the user flips.
func shipUserHistory(h *hop, addr string, shard int, epoch uint64, user string, events []serve.IngestEvent, batch int) (int, error) {
	const timeout = 15 * time.Second
	total := uint64(len(events))
	var pos uint64 // events[:pos] acknowledged by the destination
	applied, failures := 0, 0
	for pos < total {
		end := min(pos+uint64(batch), total)
		ack, err := shipChunk(h, addr, timeout, UserSpace,
			&Chunk{Shard: shard, Epoch: epoch, Key: user, First: pos + 1, Head: total, Events: events[pos:end]})
		if err != nil {
			failures++
			if failures > 3 {
				return applied, fmt.Errorf("cluster: migrating user %q to shard %d (%s): %w", user, shard, addr, err)
			}
			time.Sleep(time.Duration(failures) * 50 * time.Millisecond)
			continue
		}
		failures = 0
		applied += ack.Applied
		// Progress (applied, or already held) or a rewind (the destination
		// lost ground — a restart); anything else would loop forever.
		if ack.Cursor <= pos && !ack.Gap {
			return applied, fmt.Errorf("cluster: migrating user %q: destination %s made no progress at position %d",
				user, addr, pos)
		}
		pos = ack.Cursor
	}
	return applied, nil
}

// --- Ring delta ----------------------------------------------------------------

// UserMove records one user's ownership change between two ring epochs.
type UserMove struct {
	// From and To are the user's owners under the old and next ring.
	From int `json:"from"`
	To   int `json:"to"`
}

// movedUsers computes the ownership delta between two rings over the given
// user keys: the users whose owner changes, each mapped to its old and new
// owner. Consistent hashing keeps the delta minimal — only users owned by
// added or removed shards move — which the ring-delta unit tests pin.
func movedUsers(old, next *Ring, keys []string) map[string]UserMove {
	moves := make(map[string]UserMove)
	for _, k := range keys {
		from, to := old.Owner(k), next.Owner(k)
		if from != to {
			moves[k] = UserMove{From: from, To: to}
		}
	}
	return moves
}

// ReshardStats summarizes one live reshard: the shape change, the migration
// volume and the client-visible transition window. It is what the scenario
// runner records for a mid-load reshard.
type ReshardStats struct {
	// FromShards and ToShards are the shard counts before and after.
	FromShards int `json:"from_shards"`
	ToShards   int `json:"to_shards"`
	// Epoch is the ring epoch published by the reshard.
	Epoch uint64 `json:"epoch"`
	// UsersMoved counts users whose ownership changed; UsersMigrated counts
	// the subset with ingested history that had to be shipped.
	UsersMoved    int `json:"users_moved"`
	UsersMigrated int `json:"users_migrated"`
	// EventsMigrated counts events applied at destinations during the
	// transfer.
	EventsMigrated int `json:"events_migrated"`
	// DoubleDispatches counts reads the router served from a user's old
	// owner while that user's history was still in flight.
	DoubleDispatches int64 `json:"double_dispatches"`
	// CutoverMs is the wall-clock width of the transition window, from the
	// router entering the double-ring state to the final ring publishing.
	CutoverMs float64 `json:"cutover_ms"`
}

// Migration pacing: one chunk carries up to migrateBatch events; after the
// first full pass the cutover re-scans the sources up to drainPasses times,
// drainPause apart, until a pass ships nothing.
const (
	migrateBatch = 1024
	drainPasses  = 8
	drainPause   = 25 * time.Millisecond
)

// Reshard moves the router, and the shard set behind it, from the current
// ring to next — a grow or a shrink at epoch E+1 — with a staged cutover that
// no client sees. It reaches the nodes over its hop alone: next carries the
// address of every shard it adds, and the current ring of every shard it
// retires. The steps, in the only order that is exactly-once:
//
//  1. count: the write-ahead log of every involved primary is read over
//     POST /replicate/tail, which yields the moving set (users with history
//     whose owner changes; users without history need no migration — every
//     shard holds the full trained baseline) and how many events of each
//     mover its new owner already holds — read before any write can race it,
//     so a user returning to a former owner is not applied twice;
//  2. begin: writes route by next from here on, freezing the movers'
//     histories at their old owners; their reads stay on the old owner;
//  3. ship, then flip: a user's reads move only after the new owner has
//     acknowledged the part of the user's history it lacked;
//  4. drain: further passes read what the old owners' logs appended since
//     and catch writes from requests already in flight at begin (the ring
//     predicate, not the moving set, decides what ships, so a user whose
//     first event raced the count is caught too);
//  5. commit: every node of next is pushed its place in it over POST
//     /admin/ring (control.go), then the router leaves the transition on
//     next.
//
// Begin and commit hold the router's ring-change lock, so a promotion is
// refused in between. Any error before the commit aborts: routing reverts to
// the current ring with no user left flipped, and what already landed at a
// destination is harmless — the next attempt runs under a newer epoch and
// counts it as held. A push a node refused at the commit is returned
// alongside the stats: the ring is published all the same. Ingest accepted
// during the window is serialized by the user's new owner and may sit ahead
// of the migrated history in that owner's log; per-source order holds,
// cross-owner order is not re-established (DESIGN.md §14).
func (rt *Router) Reshard(next *Ring) (*ReshardStats, error) {
	if next == nil {
		return nil, fmt.Errorf("%w: reshard needs a next ring", ErrBadRing)
	}
	old := rt.Ring()
	oldN, target := old.NumShards(), next.NumShards()
	if target == oldN {
		return nil, fmt.Errorf("%w: the next ring keeps the %d shards of the current one", ErrBadRing, oldN)
	}
	for _, s := range next.Shards() {
		if s.Addr == "" {
			return nil, fmt.Errorf("%w: shard %d has no address", ErrBadRing, s.ID)
		}
	}

	logs := make([]*shardLog, max(oldN, target))
	for i := range logs {
		ring := old
		if i >= oldN {
			ring = next
		}
		logs[i] = &shardLog{addr: ring.Shard(i).Addr, shard: i, counts: make(map[string]uint64),
			leaving: make(map[string][]serve.IngestEvent)}
		if err := logs[i].pull(rt.hop, old, next); err != nil {
			return nil, err
		}
	}
	var keys []string
	for _, l := range logs[:oldN] {
		for u := range l.counts {
			keys = append(keys, u)
		}
	}
	moving := movedUsers(old, next, keys)
	held := make(map[string]uint64, len(moving))
	for u, mv := range moving {
		held[u] = logs[mv.To].counts[u]
	}

	ddBefore := rt.doubleDispatches.Load()
	cutStart := time.Now()
	rt.topo.Lock()
	next, err := rt.beginReshard(next, moving)
	rt.topo.Unlock()
	if err != nil {
		return nil, err
	}
	stats := &ReshardStats{FromShards: oldN, ToShards: target, Epoch: next.Epoch(), UsersMoved: len(moving)}
	shipped := make(map[string]uint64)
	shipPass := func() (int, error) {
		total := 0
		for _, l := range logs[:oldN] {
			if err := l.pull(rt.hop, old, next); err != nil {
				return total, err
			}
			for u, evs := range l.leaving {
				if uint64(len(evs)) <= shipped[u] {
					continue
				}
				dest := next.Shard(next.Owner(u))
				applied, err := shipUserHistory(rt.hop, dest.Addr, dest.ID, next.Epoch(), u,
					evs[min(held[u], uint64(len(evs))):], migrateBatch)
				if err != nil {
					return total, err
				}
				total += applied
				shipped[u] = uint64(len(evs))
				rt.flipUser(u)
			}
		}
		return total, nil
	}
	for pass := 0; pass <= drainPasses; pass++ {
		if pass > 0 {
			time.Sleep(drainPause)
		}
		n, err := shipPass()
		stats.EventsMigrated += n
		if err != nil {
			rt.abortReshard()
			return nil, err
		}
		if pass == 0 {
			// Movers with no shippable history flip with the herd (idempotent).
			for u := range moving {
				rt.flipUser(u)
			}
		} else if n == 0 {
			break
		}
	}
	stats.UsersMigrated = len(shipped)

	rt.topo.Lock()
	defer rt.topo.Unlock()
	var pushErr error
	for _, p := range ringPushes(next) {
		if err := rt.sendRing(p); err != nil && !errors.Is(err, errUnreachable) && pushErr == nil {
			pushErr = err
		}
	}
	if err := rt.completeReshard(); err != nil {
		return nil, err
	}
	stats.CutoverMs = float64(time.Since(cutStart).Microseconds()) / 1000.0
	stats.DoubleDispatches = rt.doubleDispatches.Load() - ddBefore
	return stats, pushErr
}

// shardLog is one involved primary's write-ahead log as far as a reshard has
// read it over TailPath: how many events each user has in it, and the
// histories of the users leaving the shard for another owner.
type shardLog struct {
	addr    string
	shard   int
	read    uint64
	counts  map[string]uint64
	leaving map[string][]serve.IngestEvent
}

// pull reads the records the log appended since the last pull (the log is
// append-only, so what was read stays true) and files them.
func (l *shardLog) pull(h *hop, old, next *Ring) error {
	events, err := fetchWALTail(context.Background(), h, l.addr, l.shard, l.read, toLogEnd)
	if err != nil {
		return fmt.Errorf("cluster: reading shard %d's write-ahead log: %w", l.shard, err)
	}
	l.read += uint64(len(events))
	for _, ev := range events {
		l.counts[ev.User]++
		if old.Owner(ev.User) == l.shard && next.Owner(ev.User) != l.shard {
			l.leaving[ev.User] = append(l.leaving[ev.User], ev)
		}
	}
	return nil
}
