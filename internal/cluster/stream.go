package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// The cursor stream: the one protocol every shard node speaks. A sender
// positions a chunk of committed events on a stream by the 1-based position
// of its first event; the receiver holds one cursor per stream and answers
// every chunk — accepted or refused — with that cursor, so any guess a
// sender makes about a receiver's position converges after one round trip.
// Four rules, implemented once in this file:
//
//   - fence: a chunk for another shard, or from an older ring epoch than the
//     receiver has seen, is refused; a newer epoch is adopted;
//   - duplicate: a chunk ending at or below the cursor is acknowledged
//     without applying anything;
//   - overlap: a chunk straddling the cursor has its applied prefix skipped;
//   - gap: a chunk starting past cursor+1 is refused — a cursor never skips
//     events — and the sender rewinds to the answered cursor.
//
// Two key spaces ride on it: the shard's write-ahead-log cursor (POST
// /replicate, primary → replica) and one cursor per user history (POST
// /migrate, old owner → new owner during a reshard). POST /replicate/tail
// is the pull direction of the shard space, answering in the same chunk
// shape. DESIGN.md §10.1 is the reference.

// Sentinel errors of the cursor stream, matchable with errors.Is. The HTTP
// layer maps each to one status and one `<route>_<suffix>` refusal code.
var (
	// ErrStreamBody marks a body that is not a well-formed chunk: undecodable
	// JSON, out-of-range positions, an oversized chunk, events with empty
	// keys, or (keyed streams) a missing key or events of another user.
	ErrStreamBody = errors.New("cluster: malformed stream chunk")
	// ErrStreamShard marks a chunk addressed to a different shard than the
	// node serves — a topology error, never retryable.
	ErrStreamShard = errors.New("cluster: stream shard mismatch")
	// ErrStreamEpoch marks a chunk from an older ring epoch than the node has
	// already seen (a demoted primary, an abandoned reshard).
	ErrStreamEpoch = errors.New("cluster: stream epoch mismatch")
	// ErrStreamGap marks a chunk starting past cursor+1, or a tail pull the
	// local write-ahead log cannot cover. The answer carries the cursor.
	ErrStreamGap = errors.New("cluster: stream sequence gap")
	// ErrStreamRole marks a chunk the node's current role does not accept: a
	// primary takes no pushed /replicate batches, a replica no /migrate
	// chunks and no client writes.
	ErrStreamRole = errors.New("cluster: stream refused by node role")

	errStreamMethod = errors.New("cluster: POST only")
)

// MaxReplicateEvents bounds one chunk, mirroring the ingest limit so a node
// never absorbs more per call than a client write could carry; maxChunkBody
// bounds the body a node will buffer, so hostile input cannot balloon memory.
const (
	MaxReplicateEvents = serve.MaxIngestEvents
	maxChunkBody       = 16 << 20
)

// TailPath is the route WAL-tail pulls are served on: a rejoining node whose
// local log is shorter than its snapshot cursor pulls the missing records
// from the live primary instead of refusing to rejoin.
const TailPath = "/replicate/tail"

// Space names a cursor stream's key space: its route, its refusal-code
// prefix, and whether chunks carry a key.
type Space struct {
	// Route is the HTTP path chunks of this space are POSTed to.
	Route string
	code  string
	keyed bool
}

// The two key spaces.
var (
	// ShardSpace is the shard's write-ahead-log cursor (POST /replicate).
	ShardSpace = Space{Route: "/replicate", code: "replicate"}
	// UserSpace is one cursor per user history (POST /migrate).
	UserSpace = Space{Route: "/migrate", code: "migrate", keyed: true}
)

// Chunk is the stream's one wire shape: a pushed batch, a heartbeat or
// cursor probe (no events), a tail pull (no events, the range [First, Head])
// and a tail pull's answer.
type Chunk struct {
	// Shard is the shard ID the stream belongs to.
	Shard int `json:"shard"`
	// Epoch is the ring epoch the sender ships under.
	Epoch uint64 `json:"epoch"`
	// Key is the user whose history a UserSpace chunk carries; every event
	// must belong to it. Empty in ShardSpace.
	Key string `json:"key,omitempty"`
	// First is the 1-based stream position of Events[0].
	First uint64 `json:"first"`
	// Head is the sender's end of the stream at send time: the primary's
	// committed cursor, the length of the user's full history, or the last
	// position a tail pull asks for / its answer includes.
	Head uint64 `json:"head"`
	// Events is the chunk, in stream order.
	Events []serve.IngestEvent `json:"events"`
}

// Ack is the answer to a pushed chunk. Cursor is always the receiver's
// authoritative position after the call, on success and refusal alike — the
// one field a sender needs to converge.
type Ack struct {
	// Key echoes the chunk's key.
	Key string `json:"key,omitempty"`
	// Cursor is the receiver's stream position after this call.
	Cursor uint64 `json:"cursor"`
	// Applied is how many of the chunk's events were actually applied (0 for
	// duplicates, heartbeats and probes).
	Applied int `json:"applied"`
	// Done is true once a keyed stream's cursor has reached the announced
	// Head — the user's history is fully transferred.
	Done bool `json:"done,omitempty"`
	// Version is the receiver's serving engine generation after the call.
	Version int `json:"version"`
	// Gap is true when the chunk was refused for starting past the cursor;
	// the sender must rewind to Cursor and re-ship.
	Gap bool `json:"gap,omitempty"`
	// Error and Code carry the typed refusal on non-200 answers.
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// ParseChunk decodes and validates one chunk body. Every failure wraps
// ErrStreamBody — never a panic — and allocation is bounded: the reader is
// capped at the wire limit before any decoding happens.
func ParseChunk(r io.Reader, sp Space) (*Chunk, error) {
	var c Chunk
	if err := json.NewDecoder(io.LimitReader(r, maxChunkBody)).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStreamBody, err)
	}
	n := uint64(len(c.Events))
	switch {
	case c.Shard < 0:
		return nil, fmt.Errorf("%w: negative shard %d", ErrStreamBody, c.Shard)
	case sp.keyed && c.Key == "":
		return nil, fmt.Errorf("%w: missing stream key", ErrStreamBody)
	case n > MaxReplicateEvents:
		return nil, fmt.Errorf("%w: chunk of %d events exceeds the limit of %d", ErrStreamBody, n, MaxReplicateEvents)
	case n > 0 && c.First == 0:
		return nil, fmt.Errorf("%w: first 0 (stream positions are 1-based)", ErrStreamBody)
	case c.First > math.MaxUint64-n:
		return nil, fmt.Errorf("%w: position range overflows", ErrStreamBody)
	}
	for k, ev := range c.Events {
		if ev.User == "" || ev.Item == "" {
			return nil, fmt.Errorf("%w: event %d is missing a user or item key", ErrStreamBody, k)
		}
		if sp.keyed && ev.User != c.Key {
			return nil, fmt.Errorf("%w: event %d belongs to user %q, chunk is for %q", ErrStreamBody, k, ev.User, c.Key)
		}
	}
	return &c, nil
}

// ReplicaBackend is what a receiver applies chunks through: the applied
// cursor and the same batch-apply entry point the client write path uses.
// *ingest.Ingestor satisfies it; tests substitute exact-accounting fakes.
type ReplicaBackend interface {
	// Seq returns the applied-event cursor.
	Seq() uint64
	// Apply folds one batch into the serving state (WAL append, state
	// mutation, engine republish) and reports the new cursor and version.
	Apply(ctx context.Context, events []serve.IngestEvent) (serve.IngestResult, error)
}

// receiver is the accepting end of one cursor stream — the half
// ReplicaApplier and MigrationApplier share. It owns the fence (role, shard,
// epoch) and the cursor rules; where the cursor lives is its owner's.
type receiver struct {
	space   Space
	shard   int
	backend ReplicaBackend

	// mu serializes the cursor check against the apply, so two concurrent
	// chunks cannot interleave between "read cursor" and "apply suffix".
	mu      sync.Mutex
	epoch   atomic.Uint64
	refuses atomic.Bool
}

// SetEpoch moves the receiver to a new ring epoch (promotions and reshards
// bump the epoch cluster-wide; every surviving node adopts it).
func (rx *receiver) SetEpoch(epoch uint64) { rx.epoch.Store(epoch) }

// Epoch returns the ring epoch the receiver currently accepts.
func (rx *receiver) Epoch() uint64 { return rx.epoch.Load() }

// fence refuses a chunk the node's role does not accept, a chunk for another
// shard, and a chunk from an older epoch. A newer epoch is adopted: the
// control plane bumps the epoch cluster-wide, and a sender's first chunk may
// arrive before its SetEpoch call does.
func (rx *receiver) fence(c *Chunk) error {
	if rx.refuses.Load() {
		return fmt.Errorf("%w: this node does not accept %s chunks", ErrStreamRole, rx.space.Route)
	}
	if c.Shard != rx.shard {
		return fmt.Errorf("%w: chunk for shard %d reached shard %d", ErrStreamShard, c.Shard, rx.shard)
	}
	for {
		cur := rx.epoch.Load()
		if c.Epoch < cur {
			return fmt.Errorf("%w: chunk from epoch %d, node is at epoch %d", ErrStreamEpoch, c.Epoch, cur)
		}
		if c.Epoch == cur || rx.epoch.CompareAndSwap(cur, c.Epoch) {
			return nil
		}
	}
}

// sequence runs one fenced chunk through the cursor rules at the given
// cursor: heartbeats and duplicates are acknowledged untouched, a gap is
// refused, an overlap applies only its unseen suffix. Callers hold rx.mu.
func (rx *receiver) sequence(ctx context.Context, c *Chunk, cursor uint64) (Ack, error) {
	ack := Ack{Key: c.Key, Cursor: cursor}
	n := uint64(len(c.Events))
	if n == 0 || c.First+n-1 <= cursor {
		return ack, nil
	}
	if c.First > cursor+1 {
		ack.Gap = true
		return ack, fmt.Errorf("%w: chunk starts at %d, cursor is %d", ErrStreamGap, c.First, cursor)
	}
	skip := cursor + 1 - c.First
	res, err := rx.backend.Apply(ctx, c.Events[skip:])
	if err != nil {
		return ack, fmt.Errorf("cluster: %s apply: %w", rx.space.code, err)
	}
	ack.Cursor, ack.Applied, ack.Version = c.First+n-1, int(n-skip), res.Version
	return ack, nil
}

// applier is what a stream route serves: a receiver with a cursor home.
type applier interface {
	Apply(ctx context.Context, c *Chunk) (Ack, error)
	Cursor(key string) uint64
}

// streamHandler serves one key space's POST route over an applier. Refusals
// are typed JSON acks: 405/400 <route>_body, 409 <route>_shard / _epoch /
// _gap / _role, 500 <route>_apply.
func streamHandler(sp Space, a applier) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := readChunk(w, r, sp)
		if err != nil {
			writeAck(w, sp, Ack{Cursor: a.Cursor("")}, err)
			return
		}
		ack, err := a.Apply(r.Context(), c)
		writeAck(w, sp, ack, err)
	})
}

// readChunk parses the chunk POSTed to a stream route.
func readChunk(w http.ResponseWriter, r *http.Request, sp Space) (*Chunk, error) {
	if r.Method != http.MethodPost {
		return nil, errStreamMethod
	}
	return ParseChunk(http.MaxBytesReader(w, r.Body, maxChunkBody), sp)
}

// writeAck answers a chunk: 200 with the ack, or the refusal's status with
// the error and its `<route>_<suffix>` code stamped into the ack.
func writeAck(w http.ResponseWriter, sp Space, ack Ack, err error) {
	status := http.StatusOK
	if err != nil {
		suffix := "apply"
		status = http.StatusInternalServerError
		switch {
		case errors.Is(err, errStreamMethod):
			status, suffix = http.StatusMethodNotAllowed, "body"
		case errors.Is(err, ErrStreamBody):
			status, suffix = http.StatusBadRequest, "body"
		case errors.Is(err, ErrStreamShard):
			status, suffix = http.StatusConflict, "shard"
		case errors.Is(err, ErrStreamEpoch):
			status, suffix = http.StatusConflict, "epoch"
		case errors.Is(err, ErrStreamGap):
			status, suffix = http.StatusConflict, "gap"
		case errors.Is(err, ErrStreamRole):
			status, suffix = http.StatusConflict, "role"
		}
		ack.Error, ack.Code = err.Error(), sp.code+"_"+suffix
	}
	writeJSON(w, status, ack)
}

// post sends one chunk to a node's stream route and returns the status and
// the answer body, read up to limit bytes.
func post(ctx context.Context, client *http.Client, addr, route string, c *Chunk, limit int64) (int, []byte, error) {
	payload, err := json.Marshal(c)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: encode %s chunk: %w", route, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+route, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: build %s request: %w", route, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// shipChunk pushes one chunk and decodes the ack. A 200 and a well-formed
// gap refusal are returned as acks (the caller advances or rewinds); every
// other outcome is an error.
func shipChunk(client *http.Client, addr string, timeout time.Duration, sp Space, c *Chunk) (*Ack, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	status, body, err := post(ctx, client, addr, sp.Route, c, 1<<20)
	if err != nil {
		return nil, err
	}
	var ack Ack
	if err := json.Unmarshal(body, &ack); err != nil {
		return nil, fmt.Errorf("cluster: node %s answered %d with an undecodable body: %s", addr, status, truncate(body))
	}
	if status == http.StatusOK || status == http.StatusConflict && ack.Gap {
		return &ack, nil
	}
	return nil, fmt.Errorf("cluster: node %s refused %s chunk: status %d, code %q: %s", addr, sp.code, status, ack.Code, ack.Error)
}

// errStopReplay aborts a WAL scan early once the range is read.
var errStopReplay = errors.New("cluster: stop replay")

// readWAL collects the records (after, end] of the write-ahead log at path.
func readWAL(path string, after, end uint64) ([]serve.IngestEvent, error) {
	var out []serve.IngestEvent
	err := ingest.ReplayLog(path, after, func(seq uint64, ev ingest.Event) error {
		if seq > end {
			return errStopReplay
		}
		out = append(out, ev)
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, err
	}
	return out, nil
}

// walEnd counts the committed records in a write-ahead log — the position of
// its last record (0 for a missing file).
func walEnd(path string) (uint64, error) {
	var end uint64
	err := ingest.ReplayLog(path, 0, func(seq uint64, _ ingest.Event) error {
		end = seq
		return nil
	})
	return end, err
}

// storeMax advances a monotone cursor to v unless it is already there.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Node is the stream surface of one shard node. Every node — primary or
// replica, fresh, promoted or rejoined — mounts the same three routes; the
// role only decides which of them accept: a replica takes /replicate pushes
// and refuses /migrate chunks and client writes, a primary the reverse, each
// refusal a typed 409. Promotion and demotion are SetPrimary flips.
type Node struct {
	// Replica is the /replicate receiver (open while the node is a replica).
	Replica *ReplicaApplier
	// Migrator is the /migrate receiver (open while the node is a primary).
	Migrator *MigrationApplier

	shard   int
	walPath string
}

// NewNode builds the stream surface of one node of a shard at a ring epoch,
// applying into backend and serving tail pulls from the node's own
// write-ahead log. It starts in the replica role.
func NewNode(shard int, epoch uint64, backend ReplicaBackend, walPath string) *Node {
	n := &Node{
		Replica:  NewReplicaApplier(shard, epoch, backend),
		Migrator: NewMigrationApplier(shard, epoch, backend),
		shard:    shard,
		walPath:  walPath,
	}
	n.SetPrimary(false)
	return n
}

// SetPrimary flips the node's role.
func (n *Node) SetPrimary(primary bool) {
	n.Replica.refuses.Store(primary)
	n.Migrator.refuses.Store(!primary)
}

// Primary reports whether the node currently holds the primary role.
func (n *Node) Primary() bool { return n.Replica.refuses.Load() }

// SetEpoch moves both receivers to a new ring epoch.
func (n *Node) SetEpoch(epoch uint64) {
	n.Replica.SetEpoch(epoch)
	n.Migrator.SetEpoch(epoch)
}

// Mount returns the node's HTTP surface: the three stream routes and the
// role gate on client writes, in front of the serving handler next.
func (n *Node) Mount(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(ShardSpace.Route, streamHandler(ShardSpace, n.Replica))
	mux.Handle(UserSpace.Route, streamHandler(UserSpace, n.Migrator))
	mux.Handle(TailPath, NewWALTailHandler(n.shard, n.walPath))
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if !n.Primary() {
			writeAck(w, Space{code: "ingest"}, Ack{Cursor: n.Replica.Cursor("")},
				fmt.Errorf("%w: a replica applies events only through %s", ErrStreamRole, ShardSpace.Route))
			return
		}
		next.ServeHTTP(w, r)
	})
	mux.Handle("/", next)
	return mux
}
