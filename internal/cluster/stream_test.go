package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ganc/internal/serve"
)

// countingBackend is an exact-accounting ReplicaBackend: it records every
// applied event, advances its cursor by exactly the batch length, and bumps a
// version per apply call — so tests can assert that a stream applied each
// event exactly once, in order, and never re-applied a duplicate.
type countingBackend struct {
	mu      sync.Mutex
	seq     uint64
	version int
	events  []serve.IngestEvent
	failErr error
}

// Seq implements ReplicaBackend.
func (b *countingBackend) Seq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Apply implements ReplicaBackend.
func (b *countingBackend) Apply(ctx context.Context, events []serve.IngestEvent) (serve.IngestResult, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failErr != nil {
		return serve.IngestResult{}, b.failErr
	}
	b.events = append(b.events, events...)
	b.seq += uint64(len(events))
	b.version++
	return serve.IngestResult{Applied: len(events), Seq: b.seq, Version: b.version}, nil
}

// setFail makes every following Apply fail with err (nil heals).
func (b *countingBackend) setFail(err error) {
	b.mu.Lock()
	b.failErr = err
	b.mu.Unlock()
}

// values snapshots the applied events' values, in apply order.
func (b *countingBackend) values() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]float64, len(b.events))
	for i, ev := range b.events {
		out[i] = ev.Value
	}
	return out
}

// evs builds a batch of n well-formed events whose values encode their
// ordinal, so ordering and exactly-once application are checkable.
func evs(start, n int) []serve.IngestEvent {
	out := make([]serve.IngestEvent, n)
	for i := range out {
		out[i] = serve.IngestEvent{
			User:  fmt.Sprintf("user-%d", (start+i)%7),
			Item:  fmt.Sprintf("item-%d", (start+i)%5),
			Value: float64(start + i),
		}
	}
	return out
}

// userEvs builds n well-formed events for one user whose values encode their
// 1-based history position, so ordering and exactly-once application are
// checkable per user.
func userEvs(user string, start, n int) []serve.IngestEvent {
	out := make([]serve.IngestEvent, n)
	for i := range out {
		out[i] = serve.IngestEvent{
			User:  user,
			Item:  fmt.Sprintf("item-%d", (start+i)%5),
			Value: float64(start + i),
		}
	}
	return out
}

// streamApplier is what the shared tables drive: either receiver type.
type streamApplier interface {
	applier
	Epoch() uint64
}

// spaceRig parameterises the shared stream tables and fuzz bodies by key
// space: which applier receives, which key the chunks carry, and how the
// events of positions [first, first+n) are built.
type spaceRig struct {
	space   Space
	key     string
	applier func(shard int, epoch uint64, b ReplicaBackend) streamApplier
	events  func(key string, first, n int) []serve.IngestEvent
}

var (
	shardRig = spaceRig{
		space: ShardSpace,
		applier: func(shard int, epoch uint64, b ReplicaBackend) streamApplier {
			return NewReplicaApplier(shard, epoch, b)
		},
		events: func(_ string, first, n int) []serve.IngestEvent { return evs(first, n) },
	}
	userRig = spaceRig{
		space: UserSpace,
		key:   "alice",
		applier: func(shard int, epoch uint64, b ReplicaBackend) streamApplier {
			return NewMigrationApplier(shard, epoch, b)
		},
		events: userEvs,
	}
)

// chunk builds the rig's chunk for positions [first, first+n) — a heartbeat
// or probe when n is 0 — announcing head.
func (rig spaceRig) chunk(shard int, epoch uint64, first, n int, head uint64) *Chunk {
	c := &Chunk{Shard: shard, Epoch: epoch, Key: rig.key, Head: head}
	if n > 0 {
		c.First, c.Events = uint64(first), rig.events(rig.key, first, n)
	}
	return c
}

// testStreamParserRejectsHostileBodies: every malformed body must come back
// as a typed ErrStreamBody — never a panic, never a silent acceptance. Each
// row names itself per key space ("" = the row only exists in the other one).
func testStreamParserRejectsHostileBodies(t *testing.T, rig spaceRig) {
	const ev = `{"user":"u","item":"i","value":1}`
	cases := []struct {
		shardName, userName, body string
	}{
		{"garbage", "garbage", "not json at all"},
		{"truncated", "truncated", `{"shard": 0, "key": "u", "events": [`},
		{"negative-shard", "negative-shard", `{"shard": -1, "key": "u"}`},
		{"zero-first-seq", "zero-first-idx", `{"shard":0,"key":"u","first":0,"events":[` + ev + `]}`},
		{"seq-overflow", "idx-overflow", `{"shard":0,"key":"u","first":18446744073709551615,"events":[` + ev + `,` + ev + `]}`},
		{"empty-user", "empty-user", `{"shard":0,"key":"u","first":1,"events":[{"user":"","item":"i","value":1}]}`},
		{"empty-item", "keyless-event", `{"shard":0,"key":"u","first":1,"events":[{"user":"u","item":"","value":1}]}`},
		{"", "missing-user", `{"shard":0,"epoch":1,"first":1,"events":[` + ev + `]}`},
		{"", "foreign-event", `{"shard":0,"key":"u","first":1,"events":[{"user":"other","item":"i","value":1}]}`},
	}
	for _, tc := range cases {
		name := tc.shardName
		if rig.space.keyed {
			name = tc.userName
		}
		if name == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if _, err := ParseChunk(strings.NewReader(tc.body), rig.space); !errors.Is(err, ErrStreamBody) {
				t.Fatalf("want ErrStreamBody, got %v", err)
			}
		})
	}
	// An oversized chunk is refused before any event is inspected or applied.
	big, err := json.Marshal(Chunk{Key: "u", First: 1, Events: userEvs("u", 1, MaxReplicateEvents+1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseChunk(bytes.NewReader(big), rig.space); !errors.Is(err, ErrStreamBody) {
		t.Fatalf("oversized chunk: want ErrStreamBody, got %v", err)
	}
	// A well-formed body parses, field for field.
	c, err := ParseChunk(strings.NewReader(
		`{"shard":2,"epoch":3,"key":"u","first":5,"head":9,"events":[`+ev+`]}`), rig.space)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shard != 2 || c.Epoch != 3 || c.Key != "u" || c.First != 5 || c.Head != 9 || len(c.Events) != 1 {
		t.Fatalf("parsed %+v", c)
	}
}

// TestParseReplicateRequestRejectsHostileBodies runs the parser table in the
// shard key space.
func TestParseReplicateRequestRejectsHostileBodies(t *testing.T) {
	testStreamParserRejectsHostileBodies(t, shardRig)
}

// TestParseMigrateRequestRejectsHostileBodies runs the parser table in the
// user key space (adding the missing-key and foreign-event rows).
func TestParseMigrateRequestRejectsHostileBodies(t *testing.T) {
	testStreamParserRejectsHostileBodies(t, userRig)
}

// testStreamCursorRules pins the cursor arithmetic: a probe answers without
// applying, an in-order chunk advances the cursor, a full duplicate is
// acknowledged without re-applying, a chunk past cursor+1 is a gap refusal
// that applies nothing, an overlap has its applied prefix skipped, and a
// heartbeat only announces a head — with exact cursor accounting after
// every call, the replica's head/lag tracking (a refused gap's head still
// counts toward lag) and the migration's Done / completion accounting.
func testStreamCursorRules(t *testing.T, rig spaceRig) {
	ctx := context.Background()
	b := &countingBackend{}
	a := rig.applier(0, 1, b)
	steps := []struct {
		name     string
		first, n int
		head     uint64
		cursor   uint64
		applied  int
		gap      bool
		done     bool // keyed streams only: the cursor reached the announced head
	}{
		{name: "probe"},
		{name: "in-order", first: 1, n: 4, head: 6, cursor: 4, applied: 4},
		{name: "duplicate", first: 1, n: 4, head: 6, cursor: 4},
		{name: "gap-before", first: 6, n: 1, head: 6, cursor: 4, gap: true},
		{name: "overlap", first: 3, n: 4, head: 6, cursor: 6, applied: 2, done: true},
		{name: "gap-after", first: 9, n: 2, head: 10, cursor: 6, gap: true},
		{name: "heartbeat", head: 12, cursor: 6},
	}
	var seenHead uint64
	for _, st := range steps {
		ack, err := a.Apply(ctx, rig.chunk(0, 1, st.first, st.n, st.head))
		if st.gap != errors.Is(err, ErrStreamGap) || (!st.gap && err != nil) {
			t.Fatalf("%s: error %v, want gap=%v", st.name, err, st.gap)
		}
		if ack.Cursor != st.cursor || ack.Applied != st.applied || ack.Gap != st.gap || ack.Done != (st.done && rig.space.keyed) {
			t.Fatalf("%s answered %+v, want cursor %d applied %d gap %v", st.name, ack, st.cursor, st.applied, st.gap)
		}
		if st.name == "in-order" && ack.Version != 1 {
			t.Fatalf("in-order chunk reports version %d, want 1", ack.Version)
		}
		if got := a.Cursor(rig.key); got != st.cursor {
			t.Fatalf("%s left the cursor at %d, want %d", st.name, got, st.cursor)
		}
		if got := b.Seq(); got != st.cursor {
			t.Fatalf("%s left the backend at %d, want %d", st.name, got, st.cursor)
		}
		if ra, ok := a.(*ReplicaApplier); ok {
			seenHead = max(seenHead, st.head, st.cursor)
			if got := ra.Status(); got.AppliedSeq != st.cursor || got.PrimarySeq != seenHead || got.LagEvents != seenHead-st.cursor {
				t.Fatalf("status after %s: %+v, want head %d lag %d", st.name, got, seenHead, seenHead-st.cursor)
			}
		}
	}
	if ma, ok := a.(*MigrationApplier); ok {
		if got := ma.EventsApplied(); got != 6 {
			t.Fatalf("EventsApplied = %d, want 6", got)
		}
		if got := ma.UsersCompleted(); got != 1 {
			t.Fatalf("UsersCompleted = %d, want 1", got)
		}
	}
	// Exactly-once: positions 1..6 applied, each once, in order.
	got := b.values()
	if len(got) != 6 {
		t.Fatalf("backend holds %d events, want 6", len(got))
	}
	for i, v := range got {
		if v != float64(i+1) {
			t.Fatalf("event %d has value %v, want %d", i, v, i+1)
		}
	}
}

// TestReplicaApplierCursorRules runs the cursor-rule table on the shard
// stream's receiver.
func TestReplicaApplierCursorRules(t *testing.T) { testStreamCursorRules(t, shardRig) }

// TestMigrationApplierCursorRules runs the cursor-rule table on the user
// stream's receiver.
func TestMigrationApplierCursorRules(t *testing.T) { testStreamCursorRules(t, userRig) }

// testStreamShardAndEpochRules: misaddressed chunks and stale epochs are
// refused with typed sentinels — probes and event-carrying chunks alike —
// without moving the cursor; a newer epoch is adopted (the control plane's
// SetEpoch may arrive after the sender's first chunk), after which the old
// epoch is refused.
func testStreamShardAndEpochRules(t *testing.T, rig spaceRig) {
	ctx := context.Background()
	b := &countingBackend{}
	a := rig.applier(1, 2, b)
	for _, n := range []int{0, 1} {
		if _, err := a.Apply(ctx, rig.chunk(0, 2, 1, n, 0)); !errors.Is(err, ErrStreamShard) {
			t.Fatalf("wrong shard (%d events): want ErrStreamShard, got %v", n, err)
		}
		if _, err := a.Apply(ctx, rig.chunk(1, 1, 1, n, 0)); !errors.Is(err, ErrStreamEpoch) {
			t.Fatalf("stale epoch (%d events): want ErrStreamEpoch, got %v", n, err)
		}
	}
	if got := b.Seq(); got != 0 {
		t.Fatalf("refused chunks moved the cursor to %d", got)
	}
	if _, err := a.Apply(ctx, rig.chunk(1, 5, 1, 1, 0)); err != nil {
		t.Fatalf("newer epoch refused: %v", err)
	}
	if got := a.Epoch(); got != 5 {
		t.Fatalf("epoch after adoption: %d, want 5", got)
	}
	for _, n := range []int{0, 1} {
		if _, err := a.Apply(ctx, rig.chunk(1, 2, 2, n, 0)); !errors.Is(err, ErrStreamEpoch) {
			t.Fatalf("the adopted epoch must refuse the old one (%d events): %v", n, err)
		}
	}
}

// TestReplicaApplierShardAndEpochRules runs the fence table on the shard
// stream's receiver (a demoted primary still shipping is the stale sender).
func TestReplicaApplierShardAndEpochRules(t *testing.T) { testStreamShardAndEpochRules(t, shardRig) }

// TestMigrationApplierShardAndEpochRules runs the fence table on the user
// stream's receiver (an abandoned reshard is the stale sender).
func TestMigrationApplierShardAndEpochRules(t *testing.T) { testStreamShardAndEpochRules(t, userRig) }

// testStreamHandlerStatusMapping pins a stream route's HTTP refusal
// taxonomy: 400 <route>_body, 409 <route>_shard / _epoch / _gap / _role, 500
// <route>_apply, 405 on non-POST — every body a decodable Ack, every refusal
// carrying an error string and the receiver's authoritative cursor.
func testStreamHandlerStatusMapping(t *testing.T, rig spaceRig) {
	b := &countingBackend{}
	a := rig.applier(0, 2, b)
	ts := httptest.NewServer(streamHandler(rig.space, a))
	defer ts.Close()
	post := func(t *testing.T, body string) (int, Ack) {
		t.Helper()
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out Ack
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("undecodable answer: %v", err)
		}
		return resp.StatusCode, out
	}
	body := func(shard int, epoch uint64, first, n int, head uint64) string {
		raw, err := json.Marshal(rig.chunk(shard, epoch, first, n, head))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	// Seed the receiver at cursor 2.
	if status, out := post(t, body(0, 2, 1, 2, 9)); status != http.StatusOK || out.Cursor != 2 || out.Applied != 2 {
		t.Fatalf("seed: status %d, %+v", status, out)
	}
	code := func(suffix string) string { return rig.space.code + "_" + suffix }
	// A body that never parsed names no key, so a keyed stream has no cursor
	// to cite.
	malformedCursor := uint64(2)
	if rig.space.keyed {
		malformedCursor = 0
	}
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		cursor uint64
	}{
		{"malformed", `{{{`, http.StatusBadRequest, code("body"), malformedCursor},
		{"wrong-shard", body(7, 2, 3, 1, 9), http.StatusConflict, code("shard"), 2},
		{"stale-epoch", body(0, 1, 3, 1, 9), http.StatusConflict, code("epoch"), 2},
		{"gap", body(0, 2, 9, 1, 9), http.StatusConflict, code("gap"), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, out := post(t, tc.body)
			if status != tc.status || out.Code != tc.code {
				t.Fatalf("status %d code %q, want %d %q", status, out.Code, tc.status, tc.code)
			}
			if out.Cursor != tc.cursor {
				t.Fatalf("refusal does not carry the cursor: %+v", out)
			}
			if out.Error == "" {
				t.Fatal("refusal without an error string")
			}
			// Only the gap refusal flags itself, so the sender rewinds.
			if out.Gap != (tc.name == "gap") {
				t.Fatalf("gap flag on %s: %+v", tc.name, out)
			}
		})
	}

	// A backend failure is a 500 <route>_apply; healed, the same chunk lands.
	b.setFail(errors.New("disk on fire"))
	if status, out := post(t, body(0, 2, 3, 1, 3)); status != http.StatusInternalServerError || out.Code != code("apply") {
		t.Fatalf("apply failure: status %d, %+v", status, out)
	}
	b.setFail(nil)
	if status, out := post(t, body(0, 2, 3, 1, 3)); status != http.StatusOK || out.Applied != 1 || out.Cursor != 3 || out.Done != rig.space.keyed {
		t.Fatalf("well-formed chunk answered %d %+v", status, out)
	}

	// A closed role gate is a typed 409 <route>_role that applies nothing.
	node := NewNode(0, 2, b, "")
	node.SetPrimary(rig.space == ShardSpace) // close this space's receiver
	gated := httptest.NewServer(node.Mount(http.NotFoundHandler()))
	defer gated.Close()
	resp, err := http.Post(gated.URL+rig.space.Route, "application/json", strings.NewReader(body(0, 2, 4, 1, 4)))
	if err != nil {
		t.Fatal(err)
	}
	var refusal Ack
	if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
		t.Fatalf("undecodable role refusal: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || refusal.Code != code("role") || refusal.Applied != 0 || b.Seq() != 3 {
		t.Fatalf("role refusal answered %d %+v (backend at %d)", resp.StatusCode, refusal, b.Seq())
	}

	// GET is not a stream verb — and the answer is still a typed ack.
	getResp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var notPost Ack
	if err := json.NewDecoder(getResp.Body).Decode(&notPost); err != nil || getResp.StatusCode != http.StatusMethodNotAllowed || notPost.Code != code("body") {
		t.Fatalf("GET answered %d %+v (%v)", getResp.StatusCode, notPost, err)
	}
}

// TestReplicateHandlerStatusMapping runs the refusal taxonomy on /replicate.
func TestReplicateHandlerStatusMapping(t *testing.T) { testStreamHandlerStatusMapping(t, shardRig) }

// TestMigrateHandlerStatusMapping runs the refusal taxonomy on /migrate.
func TestMigrateHandlerStatusMapping(t *testing.T) { testStreamHandlerStatusMapping(t, userRig) }

// TestReplicateRoundTripJSON pins the wire format: a chunk and an ack
// survive an encode/decode round trip field for field.
func TestReplicateRoundTripJSON(t *testing.T) {
	c := Chunk{Shard: 3, Epoch: 7, Key: "user-2", First: 100, Head: 120, Events: userEvs("user-2", 100, 2)}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []Space{ShardSpace, UserSpace} {
		back, err := ParseChunk(bytes.NewReader(data), sp)
		if err != nil {
			t.Fatal(err)
		}
		if back.Shard != c.Shard || back.Epoch != c.Epoch || back.Key != c.Key || back.First != c.First ||
			back.Head != c.Head || len(back.Events) != len(c.Events) {
			t.Fatalf("round trip: %+v", back)
		}
		for i := range c.Events {
			if back.Events[i] != c.Events[i] {
				t.Fatalf("event %d: %+v != %+v", i, back.Events[i], c.Events[i])
			}
		}
	}
	ack := Ack{Key: "user-2", Cursor: 101, Applied: 2, Done: true, Version: 4, Gap: true, Error: "e", Code: "c"}
	data, err = json.Marshal(ack)
	if err != nil {
		t.Fatal(err)
	}
	var back Ack
	if err := json.Unmarshal(data, &back); err != nil || back != ack {
		t.Fatalf("ack round trip: %+v (%v)", back, err)
	}
}

// TestNodeRoleGatesEveryRoute: in either role, /replicate, /migrate,
// /replicate/tail and /ingest all answer through the node's surface — a
// typed JSON ack for an empty POST or a GET, never the mux's plain-text 404 —
// and flipping the role flips exactly which of them accept a well-formed
// chunk.
func TestNodeRoleGatesEveryRoute(t *testing.T) {
	b := &countingBackend{}
	node := NewNode(0, 1, b, "")
	var passed atomic.Int32
	ts := httptest.NewServer(node.Mount(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		passed.Add(1)
		writeJSON(w, http.StatusOK, map[string]string{"served": r.URL.Path})
	})))
	defer ts.Close()
	status := func(path, body string) (int, Ack) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack Ack
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatalf("%s answered an undecodable body: %v", path, err)
		}
		return resp.StatusCode, ack
	}
	push, _ := json.Marshal(shardRig.chunk(0, 1, 0, 0, 0))
	probe, _ := json.Marshal(userRig.chunk(0, 1, 0, 0, 0))
	for _, primary := range []bool{false, true, false} {
		node.SetPrimary(primary)
		if node.Primary() != primary {
			t.Fatalf("Primary() = %v after SetPrimary(%v)", node.Primary(), primary)
		}
		for _, route := range []string{ShardSpace.Route, UserSpace.Route, TailPath} {
			if code, ack := status(route, ""); code != http.StatusBadRequest || !strings.HasSuffix(ack.Code, "_body") || ack.Error == "" {
				t.Fatalf("primary=%v: empty POST to %s answered %d %+v", primary, route, code, ack)
			}
		}
		want := map[bool]int{true: http.StatusOK, false: http.StatusConflict}
		if code, ack := status(ShardSpace.Route, string(push)); code != want[!primary] || (primary && ack.Code != "replicate_role") {
			t.Fatalf("primary=%v: /replicate heartbeat answered %d %+v", primary, code, ack)
		}
		if code, ack := status(UserSpace.Route, string(probe)); code != want[primary] || (!primary && ack.Code != "migrate_role") {
			t.Fatalf("primary=%v: /migrate probe answered %d %+v", primary, code, ack)
		}
		before := passed.Load()
		code, ack := status("/ingest", `{"events":[]}`)
		if primary && (code != http.StatusOK || passed.Load() != before+1) {
			t.Fatalf("a primary's /ingest did not reach the serving handler: %d", code)
		}
		if !primary && (code != http.StatusConflict || ack.Code != "ingest_role" || passed.Load() != before) {
			t.Fatalf("a replica's /ingest answered %d %+v", code, ack)
		}
	}
	if b.Seq() != 0 {
		t.Fatalf("gate probes applied %d events", b.Seq())
	}
}
