package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// The pull direction of the shard stream: a node serves the records of its
// own write-ahead log on TailPath, in the same chunk shape /replicate pushes
// carry. A rejoining node pulls what its disk lost, and a reshard reads every
// involved primary's log (Router.Reshard).

// NewWALTailHandler serves TailPath for one shard node from the node's open
// write-ahead log (nil: the node keeps none, and holds no record). The puller
// asks for the records [First, Head] (no events); the node answers with a
// contiguous chunk starting at First — capped at MaxReplicateEvents, so the
// puller loops, and at the log's acknowledged end — with Head set to the last
// position included. Pulls are reads of committed records, so neither the
// role gate nor epoch fencing applies; a pull starting past the log's end is
// refused with a typed 409 gap carrying the position the log ends at, and a
// log that cannot be read (closed, corrupt) with a 500.
func NewWALTailHandler(shard int, log *ingest.Log) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := readChunk(w, r, ShardSpace)
		switch {
		case err != nil:
		case c.Shard != shard:
			err = fmt.Errorf("%w: tail pull for shard %d arrived at shard %d", ErrStreamShard, c.Shard, shard)
		case len(c.Events) != 0:
			err = fmt.Errorf("%w: a tail pull carries no events", ErrStreamBody)
		case c.First == 0 || c.Head < c.First:
			err = fmt.Errorf("%w: bad tail range [%d, %d]", ErrStreamBody, c.First, c.Head)
		}
		if err != nil {
			writeAck(w, ShardSpace, Ack{}, err)
			return
		}
		var end uint64
		if log != nil {
			end = log.Seq()
		}
		if c.First > end {
			writeAck(w, ShardSpace, Ack{Gap: true, Cursor: end}, fmt.Errorf("%w: no record at %d, the log ends at %d", ErrStreamGap, c.First, end))
			return
		}
		end = min(end, c.Head, c.First+MaxReplicateEvents-1)
		events, err := log.ReadRange(c.First-1, end)
		if err != nil {
			writeAck(w, ShardSpace, Ack{}, err)
			return
		}
		writeJSON(w, http.StatusOK, Chunk{Shard: shard, First: c.First, Head: end, Events: events})
	})
}

// toLogEnd, as fetchWALTail's upTo, pulls to wherever the log ends.
const toLogEnd = math.MaxUint64

// fetchWALTail pulls the WAL records (after, upTo] from a node's TailPath in
// MaxReplicateEvents chunks and returns them in order; with upTo toLogEnd the
// node's gap answer past its last record ends the pull. Every
// answer goes through the stream's chunk parser and a contiguity check, so a
// broken peer cannot hand back keyless events, a misplaced range or an empty
// chunk.
func fetchWALTail(ctx context.Context, h *hop, addr string, shard int, after, upTo uint64) ([]serve.IngestEvent, error) {
	if after >= upTo {
		return nil, nil
	}
	var out []serve.IngestEvent
	for next := after + 1; next <= upTo; {
		status, body, err := post(ctx, h, addr, TailPath, &Chunk{Shard: shard, First: next, Head: upTo}, serve.MaxBodyBytes)
		if err != nil {
			return nil, fmt.Errorf("cluster: tail pull from %s: %w", addr, err)
		}
		if status != http.StatusOK {
			var refusal Ack
			_ = json.Unmarshal(body, &refusal) // best effort: the refusal's text only enriches the error
			if upTo == toLogEnd && status == http.StatusConflict && refusal.Gap && refusal.Cursor >= next-1 {
				return out, nil // the log ended here when read; a later pull reads what it appends
			}
			return nil, fmt.Errorf("%w: %s answered %d to a pull of [%d, %d]: %s", ErrStreamGap, addr, status, next, upTo, refusal.Error)
		}
		chunk, err := ParseChunk(bytes.NewReader(body), ShardSpace)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s answered a malformed tail chunk: %w", addr, err)
		}
		n := uint64(len(chunk.Events))
		if chunk.First != next || n == 0 || chunk.Head != next+n-1 || chunk.Head > upTo {
			return nil, fmt.Errorf("%w: %s answered [%d, %d] with %d events to a pull of [%d, %d]",
				ErrStreamBody, addr, chunk.First, chunk.Head, n, next, upTo)
		}
		out = append(out, chunk.Events...)
		next = chunk.Head + 1
	}
	return out, nil
}

// ErrReplicaRejoin marks a rejoin whose shard snapshot is ahead of the node's
// own write-ahead log and whose missing records no peer could supply: booting
// would assign file sequence numbers that disagree with the shard's global
// cursor, silently forking its history. The node needs a fresh WAL-complete
// snapshot instead (operationally: re-split the shard).
var ErrReplicaRejoin = errors.New("cluster: shard snapshot is ahead of the rejoining node's write-ahead log")

// RepairLog restores the WAL-sequence invariant — record n of a node's log
// is the shard's global event n — before the node boots from a snapshot at
// cursor. It opens the log at walPath once. A log that already reaches the
// cursor is left alone (boot replays whatever lies past it). A shorter one —
// the disk did not survive with the full history — has the records (its end,
// cursor] pulled from the shard's live primary and appended, and the rejoin
// is refused with ErrReplicaRejoin unless the log ends exactly at the cursor
// after it. The cursor must be the one the node then boots at: read it from
// the pipeline that is booted, never from a second look at a snapshot file a
// live primary keeps rewriting. The pull runs over a hop of its own, whose
// connections dial opens (nil: a net.Dialer).
func RepairLog(ctx context.Context, dial func(ctx context.Context, network, addr string) (net.Conn, error), walPath, primary string, shard int, cursor uint64) error {
	wal, err := ingest.OpenLog(walPath)
	if err != nil {
		return fmt.Errorf("cluster: opening rejoin write-ahead log: %w", err)
	}
	defer wal.Close() // every appended batch is already durable
	records := wal.Seq()
	if cursor <= records {
		return nil
	}
	h := newHop(dial)
	tail, err := fetchWALTail(ctx, h, primary, shard, records, cursor)
	h.Close()
	if err != nil {
		return fmt.Errorf("%w: snapshot cursor %d, log has %d records, and the primary could not supply the tail: %v",
			ErrReplicaRejoin, cursor, records, err)
	}
	head, err := wal.Append(tail)
	if err != nil {
		return fmt.Errorf("cluster: appending fetched tail: %w", err)
	}
	if head != cursor {
		return fmt.Errorf("%w: fetched tail ends at %d, snapshot cursor is %d", ErrReplicaRejoin, head, cursor)
	}
	return nil
}
