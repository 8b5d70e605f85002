package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ganc/internal/ingest"
)

// tailWAL writes n events (values 1..n) into a fresh write-ahead log.
func tailWAL(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tail.wal")
	wal, err := ingest.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for done := 0; done < n; done += 5000 {
		if _, err := wal.Append(evs(done+1, min(5000, n-done))); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWALTailHandlerTable pins the pull side of the shard stream: what a
// node answers to well-formed pulls (a contiguous chunk from First, capped
// at MaxReplicateEvents, Head at the last record included) and every typed
// refusal — none of which depends on the node's role or epoch.
func TestWALTailHandlerTable(t *testing.T) {
	const records = MaxReplicateEvents + 50
	ts := httptest.NewServer(NewWALTailHandler(3, tailWAL(t, records)))
	defer ts.Close()
	one := `{"user":"u","item":"i","value":1}`
	cases := []struct {
		name   string
		body   string
		status int
		code   string
		first  uint64 // 200: the chunk's range
		head   uint64
		cursor uint64 // 409 gap: where the log ends
	}{
		{name: "mid-range", body: `{"shard":3,"first":11,"head":20}`, status: 200, first: 11, head: 20},
		{name: "clipped-to-the-log", body: `{"shard":3,"first":10041,"head":99999}`, status: 200, first: 10041, head: records},
		{name: "capped-chunk", body: `{"shard":3,"first":1,"head":10050}`, status: 200, first: 1, head: MaxReplicateEvents},
		{name: "epoch-is-ignored", body: `{"shard":3,"epoch":99,"first":1,"head":1}`, status: 200, first: 1, head: 1},
		{name: "wrong-shard", body: `{"shard":2,"first":1,"head":5}`, status: 409, code: "replicate_shard"},
		{name: "events-in-a-pull", body: `{"shard":3,"first":1,"head":5,"events":[` + one + `]}`, status: 400, code: "replicate_body"},
		{name: "first-zero", body: `{"shard":3,"first":0,"head":5}`, status: 400, code: "replicate_body"},
		{name: "head-before-first", body: `{"shard":3,"first":9,"head":8}`, status: 400, code: "replicate_body"},
		{name: "garbage", body: `][`, status: 400, code: "replicate_body"},
		{name: "past-the-log", body: `{"shard":3,"first":10051,"head":10060}`, status: 409, code: "replicate_gap", cursor: records},
		{name: "far-past-the-log", body: fmt.Sprintf(`{"shard":3,"first":%d,"head":%d}`, uint64(math.MaxUint64-1), uint64(math.MaxUint64)), status: 409, code: "replicate_gap", cursor: records},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status == http.StatusOK {
				chunk, err := ParseChunk(resp.Body, ShardSpace)
				if err != nil {
					t.Fatalf("answer does not parse as a chunk: %v", err)
				}
				if chunk.Shard != 3 || chunk.First != tc.first || chunk.Head != tc.head || uint64(len(chunk.Events)) != tc.head-tc.first+1 {
					t.Fatalf("answered [%d, %d] with %d events, want [%d, %d]", chunk.First, chunk.Head, len(chunk.Events), tc.first, tc.head)
				}
				for k, ev := range chunk.Events {
					if ev.Value != float64(tc.first)+float64(k) {
						t.Fatalf("event %d is record %v, want %d", k, ev.Value, tc.first+uint64(k))
					}
				}
				return
			}
			var refusal Ack
			if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
				t.Fatalf("undecodable refusal: %v", err)
			}
			if refusal.Code != tc.code || refusal.Error == "" || refusal.Gap != (tc.code == "replicate_gap") || refusal.Cursor != tc.cursor {
				t.Fatalf("refusal %+v, want code %q cursor %d", refusal, tc.code, tc.cursor)
			}
		})
	}
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var refusal Ack
	if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil || resp.StatusCode != http.StatusMethodNotAllowed || refusal.Code != "replicate_body" {
		t.Fatalf("GET answered %d %+v (%v)", resp.StatusCode, refusal, err)
	}
}

// TestFetchWALTailPullsAcrossChunks: the client loops over capped chunks and
// returns exactly the records (after, upTo], in order; an empty or inverted
// range asks nothing and allocates nothing.
func TestFetchWALTailPullsAcrossChunks(t *testing.T) {
	const records = 2*MaxReplicateEvents + 7
	var pulls atomic.Int32
	tail := NewWALTailHandler(0, tailWAL(t, records))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pulls.Add(1)
		tail.ServeHTTP(w, r)
	}))
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")
	ctx := context.Background()

	got, err := fetchWALTail(ctx, nil, addr, 0, 3, records)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != records-3 || pulls.Load() != 3 {
		t.Fatalf("fetched %d records in %d pulls, want %d in 3", len(got), pulls.Load(), records-3)
	}
	for k, ev := range got {
		if ev.Value != float64(k+4) {
			t.Fatalf("record %d has value %v, want %d", k, ev.Value, k+4)
		}
	}
	// after ≥ upTo is an empty range, whatever the distance: no pull, no
	// allocation sized by the difference (it used to underflow and panic).
	for _, r := range [][2]uint64{{5, 5}, {9, 2}, {math.MaxUint64, 0}, {math.MaxUint64, math.MaxUint64}} {
		got, err := fetchWALTail(ctx, nil, addr, 0, r[0], r[1])
		if err != nil || len(got) != 0 {
			t.Fatalf("fetchWALTail(after=%d, upTo=%d) = %d records, %v", r[0], r[1], len(got), err)
		}
	}
	if pulls.Load() != 3 {
		t.Fatalf("empty ranges issued %d pulls", pulls.Load()-3)
	}
	// A range past the log is the peer's typed gap, not a short result.
	if _, err := fetchWALTail(ctx, nil, addr, 0, records-1, records+5); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("pull past the log: want ErrStreamGap, got %v", err)
	}
}

// TestFetchWALTailRejectsHostileAnswers: whatever a broken or hostile peer
// answers, the client returns an error — never a panic, never records that
// did not pass the stream's chunk validation, never an endless loop.
func TestFetchWALTailRejectsHostileAnswers(t *testing.T) {
	chunk := func(first, head uint64, events int) string {
		raw, err := json.Marshal(Chunk{First: first, Head: head, Events: evs(int(first), events)})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	cases := []struct {
		name   string
		status int
		body   string
	}{
		{"wrong-first", 200, chunk(7, 9, 3)},
		{"overlong", 200, chunk(5, 12, 8)}, // runs past the requested upTo
		{"count-short-of-range", 200, chunk(5, 9, 3)},
		{"empty-chunk", 200, `{"first":5,"head":4,"events":[]}`},
		{"too-many-events", 200, chunk(5, 5+MaxReplicateEvents, MaxReplicateEvents+1)},
		{"keyless-event", 200, `{"first":5,"head":5,"events":[{"user":"","item":"i","value":1}]}`},
		{"itemless-event", 200, `{"first":5,"head":5,"events":[{"user":"u","item":"","value":1}]}`},
		{"undecodable", 200, `][ not json`},
		{"empty-body", 200, ``},
		{"oversized-body", 200, `{"first":5,"head":5,"pad":"` + strings.Repeat("x", maxChunkBody) + `","events":[{"user":"u","item":"i","value":1}]}`},
		{"teapot", http.StatusTeapot, chunk(5, 9, 5)},
		{"plain-404", http.StatusNotFound, "404 page not found\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			}))
			defer ts.Close()
			got, err := fetchWALTail(context.Background(), nil, strings.TrimPrefix(ts.URL, "http://"), 0, 4, 9)
			if err == nil || got != nil {
				t.Fatalf("hostile answer %q yielded %d records, err %v", tc.name, len(got), err)
			}
		})
	}
}

// TestRepairLog drives the rejoin's log repair over the in-memory fabric: a
// log short of the cursor is completed from the primary's tail route and ends
// exactly at the cursor, record for record; a log that reaches or passes the
// cursor is left alone without a pull; and whenever the gap cannot be filled
// faithfully — the primary is gone, holds too little, answers garbage, or the
// local log moved during the pull — the repair refuses with ErrReplicaRejoin
// and the log keeps exactly the records it had.
func TestRepairLog(t *testing.T) {
	const primaryRecords = 40
	primaryWAL := tailWAL(t, primaryRecords)
	cases := []struct {
		name    string
		local   int    // records in the rejoining node's log
		cursor  uint64 // the cursor the node will boot at
		primary func(local string) http.Handler
		pulls   int
		refused bool
		after   int // records in the log afterwards
	}{
		{name: "lost-log", local: 0, cursor: 30, pulls: 1, after: 30},
		{name: "short-log", local: 12, cursor: 30, pulls: 1, after: 30},
		{name: "up-to-the-primary-end", local: 39, cursor: 40, pulls: 1, after: 40},
		{name: "equal", local: 30, cursor: 30, after: 30},
		{name: "longer-than-the-cursor", local: 35, cursor: 30, after: 35},
		{name: "cursor-zero", local: 0, cursor: 0, after: 0},
		{name: "primary-holds-too-little", local: 12, cursor: 45, pulls: 2, refused: true, after: 12}, // what it has, then the gap
		{name: "primary-unreachable", local: 12, cursor: 30, refused: true, after: 12,
			primary: func(string) http.Handler { return nil }},
		{name: "hostile-tail-misplaced", local: 12, cursor: 30, pulls: 1, refused: true, after: 12,
			primary: func(string) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					writeJSON(w, http.StatusOK, Chunk{First: 14, Head: 31, Events: evs(14, 18)})
				})
			}},
		{name: "hostile-tail-keyless", local: 29, cursor: 30, pulls: 1, refused: true, after: 29,
			primary: func(string) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					fmt.Fprint(w, `{"first":30,"head":30,"events":[{"user":"","item":"i","value":30}]}`)
				})
			}},
		{name: "log-moved-during-the-pull", local: 12, cursor: 30, pulls: 1, refused: true, after: 13,
			primary: func(local string) http.Handler {
				tail := NewWALTailHandler(0, primaryWAL)
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					wal, err := ingest.OpenLog(local)
					if err == nil {
						_, err = wal.Append(evs(13, 1))
						wal.Close()
					}
					if err != nil {
						t.Error(err)
					}
					tail.ServeHTTP(w, r)
				})
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local := filepath.Join(t.TempDir(), "lost.wal")
			if tc.local > 0 {
				local = tailWAL(t, tc.local)
			}
			primary := NewWALTailHandler(0, primaryWAL)
			if tc.primary != nil {
				primary = tc.primary(local)
			}
			var pulls int
			net := fabric{}
			if primary != nil {
				net["primary.mem"] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					pulls++
					primary.ServeHTTP(w, r)
				})
			}
			err := RepairLog(context.Background(), net.client(), local, "primary.mem", 0, tc.cursor)
			if tc.refused != errors.Is(err, ErrReplicaRejoin) || (err != nil) != tc.refused {
				t.Fatalf("repair answered %v, want refused=%v", err, tc.refused)
			}
			if pulls != tc.pulls {
				t.Fatalf("%d pulls, want %d", pulls, tc.pulls)
			}
			got, err := readWAL(local, 0, math.MaxUint64)
			if err != nil || len(got) != tc.after {
				t.Fatalf("log holds %d records afterwards (%v), want %d", len(got), err, tc.after)
			}
			for k, ev := range got {
				if ev.Value != float64(k+1) {
					t.Fatalf("record %d carries event %v", k+1, ev.Value)
				}
			}
		})
	}
}
