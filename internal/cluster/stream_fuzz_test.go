package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// One fuzz suite for the cursor stream. Both bodies below are written once
// and run over either key space; the four targets keep one entry point per
// route so a failure names the route it was found on.

// hostileBodySeeds is the seed corpus of the hostile-body targets: the
// former /replicate corpus, then the former /migrate corpus, on the unified
// wire field names.
var hostileBodySeeds = [][]byte{
	[]byte(`{"shard":0,"epoch":1,"first":1,"head":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":7,"epoch":1,"first":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":0,"first":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"first":999,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":-1}`),
	[]byte(`{"shard":0,"epoch":1,"first":0,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"first":18446744073709551615,"events":[{"user":"u","item":"i","value":1},{"user":"u","item":"i","value":2}]}`),
	[]byte(`{"shard":0,"epoch":1,"first":1,"events":[{"user":"","item":"i","value":1}]}`),
	[]byte(`not json`),
	[]byte(``),
	bytes.Repeat([]byte(`[`), 4096),

	[]byte(`{"shard":0,"epoch":1,"key":"u","first":1,"head":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":7,"epoch":1,"key":"u","first":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":0,"key":"u","first":1,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"key":"u","first":999,"head":999,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"key":"u","first":0,"events":[{"user":"u","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"key":"u","first":18446744073709551615,"events":[{"user":"u","item":"i","value":1},{"user":"u","item":"i","value":2}]}`),
	[]byte(`{"shard":0,"epoch":1,"key":"u","first":1,"events":[{"user":"other","item":"i","value":1}]}`),
	[]byte(`{"shard":0,"epoch":1,"key":"","first":1,"events":[{"user":"","item":"i","value":1}]}`),
	[]byte(`{"shard":-1,"key":"u"}`),
	[]byte(`{"shard":0,"epoch":1,"key":"u"}`),
}

// fuzzStreamHostileBody throws attacker-controlled bytes at a stream route.
// The contract under fuzz: the handler never panics, allocation stays
// bounded (the reader is capped before decoding), every answer is a
// decodable Ack carrying the receiver's authoritative cursor, the status is
// always from the protocol's taxonomy, refusals carry a typed code and apply
// nothing, and replaying a body is idempotent — no hostile body ever moves
// the cursor, a second delivery of an accepted chunk applies nothing, and
// the backend's event count always equals the sum of acknowledged applies.
func fuzzStreamHostileBody(f *testing.F, rig spaceRig) {
	for _, seed := range hostileBodySeeds {
		f.Add(seed)
	}
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusConflict:            true,
		http.StatusInternalServerError: true,
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		backend := &countingBackend{}
		handler := streamHandler(rig.space, rig.applier(0, 1, backend))

		// Fire the same body twice: the second answer's cursor must never be
		// behind the first — replay can only be idempotent or advancing — and
		// delivery retries must apply nothing more.
		var prevCursor uint64
		var acked, firstApplied int
		for round := 0; round < 2; round++ {
			req := httptest.NewRequest(http.MethodPost, rig.space.Route, bytes.NewReader(raw))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)

			if !allowed[rec.Code] {
				t.Fatalf("status %d outside the %s taxonomy for body %q", rec.Code, rig.space.Route, truncate(raw))
			}
			var ack Ack
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatalf("undecodable answer %q for body %q", rec.Body.String(), truncate(raw))
			}
			if ack.Cursor != backend.Seq() {
				t.Fatalf("answer cites cursor %d, backend is at %d", ack.Cursor, backend.Seq())
			}
			if ack.Cursor < prevCursor {
				t.Fatalf("cursor regressed %d -> %d on replay", prevCursor, ack.Cursor)
			}
			if rec.Code != http.StatusOK {
				if ack.Code == "" || ack.Error == "" {
					t.Fatalf("refusal %d without a typed code/error: %q", rec.Code, rec.Body.String())
				}
				if ack.Cursor != prevCursor {
					t.Fatalf("refused body moved the cursor %d -> %d", prevCursor, ack.Cursor)
				}
				if ack.Applied != 0 {
					t.Fatalf("refusal %d claims %d applied events", rec.Code, ack.Applied)
				}
			}
			if round == 0 {
				firstApplied = ack.Applied
			} else if ack.Applied != 0 {
				t.Fatalf("replaying a body applied %d more events after %d (retries must be idempotent)",
					ack.Applied, firstApplied)
			}
			acked += ack.Applied
			if got := len(backend.values()); got != acked {
				t.Fatalf("backend holds %d events, acknowledgments total %d", got, acked)
			}
			prevCursor = ack.Cursor
		}
	})
}

// FuzzReplicateHostileBody runs the hostile-body fuzz on POST /replicate.
func FuzzReplicateHostileBody(f *testing.F) { fuzzStreamHostileBody(f, shardRig) }

// FuzzMigrateHostileBody runs the hostile-body fuzz on POST /migrate.
func FuzzMigrateHostileBody(f *testing.F) { fuzzStreamHostileBody(f, userRig) }

// sequenceSeeds is the seed corpus of the sequence targets: the former
// /replicate corpus ((first, n) pairs), then the former /migrate corpus
// ((user, first, n) triples). Either body decodes either shape.
var sequenceSeeds = [][]byte{
	{1, 4, 1, 4, 5, 2, 3, 4},    // apply, duplicate, extend, overlap
	{1, 3, 9, 2, 4, 3},          // gap, then heal
	{1, 0, 2, 0, 1, 7},          // heartbeats around a batch
	{255, 7, 1, 7, 255, 7},      // far-future gaps sandwiching progress
	{1, 1, 2, 1, 3, 1, 4, 1},    // single-event chain
	{1, 6, 1, 6, 1, 6, 7, 6, 1}, // replay storms

	{0, 1, 4, 0, 1, 4, 0, 5, 2},          // apply, duplicate, extend
	{1, 1, 3, 1, 9, 2, 1, 4, 3},          // gap, then heal
	{0, 1, 0, 1, 1, 5, 0, 2, 0},          // probes around batches
	{0, 255, 7, 0, 1, 7, 1, 255, 7},      // far-future gaps
	{0, 1, 1, 1, 1, 1, 0, 2, 1, 1, 2, 1}, // interleaved single-event chains
	{2, 1, 6, 2, 1, 6, 3, 7, 6},          // replay storms on more users
}

// fuzzStreamSequence feeds a receiver a fuzz-shaped stream of chunks —
// duplicated, overlapping, gapped, out of order, heartbeats and probes, and
// in a keyed space interleaved across users — and model-checks the cursor
// rules after every call: a cursor never regresses, a gap refusal never
// applies anything, an accepted chunk lands the cursor exactly at its last
// position, Done fires exactly when a keyed cursor reaches the announced
// head, and at the end each stream's applied events are exactly positions
// 1..cursor, once each, in order. Every chunk goes through the wire codec
// first, so the stream exercises exactly what a sender can send.
func fuzzStreamSequence(f *testing.F, rig spaceRig) {
	for _, seed := range sequenceSeeds {
		f.Add(seed)
	}
	ctx := context.Background()
	users := []string{"alice", "bob", "carol", "dave"}
	stride := 2 // (first, n)
	if rig.space.keyed {
		stride = 3 // (user, first, n)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		backend := &countingBackend{}
		a := rig.applier(0, 1, backend)
		cursors := make(map[string]uint64)
		heads := make(map[string]uint64)
		for i := 0; i+stride <= len(ops) && i < 64*stride; i += stride {
			key := ""
			if rig.space.keyed {
				key = users[int(ops[i])%len(users)]
			}
			first := uint64(ops[i+stride-2])
			n := int(ops[i+stride-1] % 8)
			last := first + uint64(n) - 1
			c := Chunk{Shard: 0, Epoch: 1, Key: key, First: first}
			if n > 0 {
				c.Events = rig.events(key, int(first), n)
				// Announce a stable per-stream head so Done has one truth: the
				// largest last-position this stream has mentioned.
				heads[key] = max(heads[key], last)
			}
			c.Head = heads[key]

			// Round-trip through the wire codec: chunks a real sender could not
			// encode (first 0 with events) are a parse refusal, not a receiver
			// input.
			payload, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseChunk(bytes.NewReader(payload), rig.space)
			if err != nil {
				if !errors.Is(err, ErrStreamBody) {
					t.Fatalf("untyped parse failure: %v", err)
				}
				continue
			}
			cursor := cursors[key]
			ack, err := a.Apply(ctx, parsed)
			if ack.Cursor < cursor {
				t.Fatalf("stream %q cursor regressed %d -> %d on chunk [%d,+%d)", key, cursor, ack.Cursor, first, n)
			}
			switch {
			case err == nil && n == 0:
				if ack.Applied != 0 || ack.Cursor != cursor {
					t.Fatalf("heartbeat on %q answered %+v at cursor %d", key, ack, cursor)
				}
			case err == nil && last <= cursor:
				if ack.Applied != 0 || ack.Cursor != cursor {
					t.Fatalf("duplicate [%d,%d] on %q answered %+v at cursor %d", first, last, key, ack, cursor)
				}
			case err == nil:
				if ack.Cursor != last {
					t.Fatalf("accepted chunk [%d,%d] on %q left cursor at %d", first, last, key, ack.Cursor)
				}
				if got := uint64(ack.Applied); got != last-cursor {
					t.Fatalf("chunk [%d,%d] on %q at cursor %d applied %d events, want %d", first, last, key, cursor, got, last-cursor)
				}
			case errors.Is(err, ErrStreamGap):
				if !ack.Gap || ack.Cursor != cursor || first <= cursor+1 {
					t.Fatalf("gap refusal %+v (%v) for chunk [%d,%d] on %q at cursor %d", ack, err, first, last, key, cursor)
				}
			default:
				t.Fatalf("untyped apply failure: %v", err)
			}
			if err == nil && rig.space.keyed {
				wantDone := c.Head > 0 && ack.Cursor >= c.Head
				if ack.Done != wantDone {
					t.Fatalf("chunk on %q at head %d, cursor %d: done=%v, want %v", key, c.Head, ack.Cursor, ack.Done, wantDone)
				}
			}
			if got := a.Cursor(key); got != ack.Cursor {
				t.Fatalf("Cursor(%q) = %d, answer said %d", key, got, ack.Cursor)
			}
			cursors[key] = ack.Cursor
		}

		// Exactly-once per stream, in order: the backend holds, for each key,
		// precisely positions 1..cursor — and the global count matches both
		// the model and the receivers' own accounting.
		var wantTotal uint64
		perKey := make(map[string][]int)
		backend.mu.Lock()
		for _, ev := range backend.events {
			key := ""
			if rig.space.keyed {
				key = ev.User
			}
			perKey[key] = append(perKey[key], int(ev.Value))
		}
		got := len(backend.events)
		backend.mu.Unlock()
		for key, cursor := range cursors {
			wantTotal += cursor
			seq := perKey[key]
			if uint64(len(seq)) != cursor {
				t.Fatalf("backend holds %d events for stream %q at cursor %d", len(seq), key, cursor)
			}
			for i, v := range seq {
				if v != i+1 {
					t.Fatalf("stream %q event %d has position %d, want %d", key, i, v, i+1)
				}
			}
		}
		if uint64(got) != wantTotal || backend.Seq() != wantTotal {
			t.Fatalf("backend holds %d events at cursor %d, stream cursors total %d", got, backend.Seq(), wantTotal)
		}
		if ma, ok := a.(*MigrationApplier); ok && ma.EventsApplied() != int64(wantTotal) {
			t.Fatalf("EventsApplied = %d, cursors total %d", ma.EventsApplied(), wantTotal)
		}
	})
}

// FuzzReplicateSequenceStream runs the sequence fuzz over the shard key space.
func FuzzReplicateSequenceStream(f *testing.F) { fuzzStreamSequence(f, shardRig) }

// FuzzMigrateSequenceStream runs the sequence fuzz over the user key space.
func FuzzMigrateSequenceStream(f *testing.F) { fuzzStreamSequence(f, userRig) }
