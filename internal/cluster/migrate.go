package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// Live migration: the protocol that moves a user between shards when the ring
// grows or shrinks. Every shard holds the full trained model, so moving a
// user means moving only what the model does not have — the user's ingested
// interaction history, which the old owner's append-only write-ahead log
// holds in per-user order. The old owner ships that history to the new owner
// over POST /migrate — the cursor stream (stream.go) in the user key space:
// positions index the user's history slice, one cursor per user — and the
// new owner folds it through the same Ingestor machinery that serves its
// reads (so the events land in the new owner's own WAL, durable and
// replicated, before the router flips the user). This file holds what is
// migration's own: per-user cursors seeded from the destination's WAL
// (seedCursor makes the transfer exactly-once even across destination
// restarts and users that migrate away and later return), the sender's
// chunk iteration, the ring delta, and the staged cutover that sequences
// them (Router.Reshard).

// MigrationApplier is the destination side of the user stream: a receiver
// with one cursor per moving user, seeded from the node's own write-ahead
// log, plus the count of events applied that the race suite reads. One
// applier guards one shard node; only a primary's accepts chunks.
type MigrationApplier struct {
	receiver
	cursors map[string]uint64
	events  atomic.Int64
}

// NewMigrationApplier builds the applier for one shard node, accepting
// chunks from ring epoch `epoch` onward.
func NewMigrationApplier(shard int, epoch uint64, backend ReplicaBackend) *MigrationApplier {
	ma := &MigrationApplier{
		receiver: receiver{space: UserSpace, shard: shard, backend: backend},
		cursors:  make(map[string]uint64),
	}
	ma.epoch.Store(epoch)
	return ma
}

// seedCursor pre-positions a user's cursor at the number of that user's
// events already present in the destination's own WAL, so a history prefix
// the node already holds (an earlier migration round, a restart mid-transfer,
// a user returning to a former owner) is acknowledged instead of applied
// twice. The cursor only ever moves forward.
func (ma *MigrationApplier) seedCursor(user string, idx uint64) {
	if user == "" {
		return
	}
	ma.mu.Lock()
	if idx > ma.cursors[user] {
		ma.cursors[user] = idx
	}
	ma.mu.Unlock()
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

// shipUserHistory streams one user's complete event history to its next
// owner over POST /migrate in cursor-sequenced chunks of batch events,
// converging on the destination's acknowledged cursor: duplicates advance it
// for free, gap refusals rewind the send position, and transient transport
// failures are retried with backoff. It returns how many events the
// destination actually applied (0 when it already held the full history).
//
// The per-chunk timeout is generous: during a reshard under saturating load
// the destination queues migration posts behind cold-cache serving traffic,
// and a couple of seconds can expire on queueing alone. Patience here is
// invisible to clients — reads keep double-dispatching to the old owner until
// the user flips.
func shipUserHistory(client *http.Client, addr string, shard int, epoch uint64, user string, events []serve.IngestEvent, batch int) (int, error) {
	const timeout = 15 * time.Second
	total := uint64(len(events))
	var pos uint64 // events[:pos] acknowledged by the destination
	applied, failures := 0, 0
	for pos < total {
		end := min(pos+uint64(batch), total)
		ack, err := shipChunk(client, addr, timeout, UserSpace,
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
// no client sees. primaries holds every involved shard's live primary by ring
// index (the old ring's shards and the next ring's; each node knows its own
// write-ahead log and /migrate cursors); next carries the addresses chunks
// are shipped to. The steps, in the only order that is exactly-once:
//
//  1. count: one pass over every log yields the moving set (users with
//     history whose owner changes; users without history need no migration —
//     every shard holds the full trained baseline) and seeds each
//     destination's cursors with the prefix it already holds, before any
//     write can race them, so a user returning to a former owner is not
//     applied twice;
//  2. begin: writes route by next from here on, freezing the movers'
//     histories at their old owners; their reads stay on the old owner;
//  3. ship, then flip: a user's reads move only after the new owner has
//     acknowledged the user's whole history;
//  4. drain: further passes catch appends from requests already in flight at
//     begin (the ring predicate, not the moving set, decides what ships, so a
//     user whose first event raced the count is caught too);
//  5. commit: every node of next is pushed its place in it over POST
//     /admin/ring (control.go), then the router leaves the transition on
//     next.
//
// Begin and commit hold the router's ring-change lock, so a promotion is
// refused in between. Any error before the commit aborts: routing reverts to
// the current ring with no user left flipped, and what already landed at a
// destination is harmless — its cursors make the next attempt acknowledge
// it. A push a node refused at the commit is returned alongside the stats:
// the ring is published all the same. Ingest accepted during the window is
// serialized by the user's new owner and may sit ahead of the migrated
// history in that owner's log; per-source order holds, cross-owner order is
// not re-established (DESIGN.md §14).
func (rt *Router) Reshard(next *Ring, primaries []*Node) (*ReshardStats, error) {
	if next == nil {
		return nil, fmt.Errorf("%w: reshard needs a next ring", ErrBadRing)
	}
	old := rt.Ring()
	oldN, target := old.NumShards(), next.NumShards()
	if len(primaries) < max(oldN, target) {
		return nil, fmt.Errorf("%w: a %d→%d reshard needs every shard's primary, got %d", ErrBadRing, oldN, target, len(primaries))
	}
	stats := &ReshardStats{FromShards: oldN, ToShards: target, Epoch: next.Epoch()}

	counts := make([]map[string]uint64, len(primaries))
	for i, n := range primaries {
		counts[i] = make(map[string]uint64)
		if err := ingest.ReplayLog(n.walPath, 0, func(_ uint64, ev ingest.Event) error {
			counts[i][ev.User]++
			return nil
		}); err != nil {
			return nil, fmt.Errorf("cluster: scanning shard %d write-ahead log: %w", i, err)
		}
	}
	var keys []string
	for _, c := range counts[:oldN] {
		for u := range c {
			keys = append(keys, u)
		}
	}
	moving := movedUsers(old, next, keys)
	stats.UsersMoved = len(moving)
	for u, mv := range moving {
		primaries[mv.To].Migrator.seedCursor(u, counts[mv.To][u])
	}

	ddBefore := rt.doubleDispatches.Load()
	cutStart := time.Now()
	rt.topo.Lock()
	err := rt.beginReshard(next, moving)
	rt.topo.Unlock()
	if err != nil {
		return nil, err
	}
	shipped := make(map[string]uint64)
	shipPass := func() (int, error) {
		total := 0
		for s := range oldN {
			hist, _, err := ingest.CollectUserEvents(primaries[s].walPath, func(u string) bool {
				return old.Owner(u) == s && next.Owner(u) != s
			})
			if err != nil {
				return total, fmt.Errorf("cluster: collecting shard %d histories: %w", s, err)
			}
			for u, evs := range hist {
				if uint64(len(evs)) <= shipped[u] {
					continue
				}
				dest := next.Shard(next.Owner(u))
				applied, err := shipUserHistory(rt.client, dest.Addr, dest.ID, next.Epoch(), u, evs, migrateBatch)
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
