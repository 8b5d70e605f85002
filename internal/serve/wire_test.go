package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/obs"
	"ganc/internal/types"
)

// Keys chosen for what encoding/json does to them: HTML escaping of < > &,
// quote escaping, raw non-ASCII, and the U+2028 escape.
const (
	userHTML  = `al<ice>&"q"`
	userUni   = "bøb\u2028日本"
	userPlain = "plain"
	userEmpty = "empty" // the engine's list for this user is empty
	userFails = "fails" // the engine errors for this user
)

var wireItems = []string{`<matrix>&"`, "日本語", "a\u2028b", "alien", "inception"}

// wireFixture is a train set over the keys above; user and item indices are
// assignment order.
func wireFixture() *dataset.Dataset {
	b := dataset.NewBuilder("wire", 8)
	for _, u := range []string{userHTML, userUni, userPlain, userEmpty, userFails} {
		for _, it := range wireItems {
			b.Add(u, it, 3)
		}
	}
	return b.Build()
}

// wireEngine serves fixed lists, an empty one for userEmpty and an error for
// userFails.
type wireEngine struct {
	countingEngine
	fails types.UserID
}

var errWireEngine = errors.New(`engine <refused> & "failed"`)

func (e *wireEngine) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	if u == e.fails {
		e.computes.Add(1)
		return nil, errWireEngine
	}
	return e.countingEngine.RecommendUser(ctx, u, n)
}

func newWireEngine(name string, rotate int) *wireEngine {
	recs := types.Recommendations{3: {}}
	for u := 0; u < 3; u++ {
		set := make(types.TopNSet, 3)
		for k := range set {
			set[k] = types.ItemID((u + k + rotate) % len(wireItems))
		}
		recs[types.UserID(u)] = set
	}
	return &wireEngine{countingEngine: countingEngine{name: name, recs: recs}, fails: 4}
}

// oracle is the wire form by definition: the documented type through
// json.NewEncoder, as every response was produced before the cached heads.
func oracle(t *testing.T, v interface{}) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func itemKeys(set types.TopNSet) []string {
	keys := make([]string, len(set))
	for k, i := range set {
		keys[k] = wireItems[i]
	}
	return keys
}

func serveOnce(h http.Handler, method, target, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

func recommendURL(user, n string) string {
	target := "/recommend?user=" + url.QueryEscape(user)
	if n != "" {
		target += "&n=" + url.QueryEscape(n)
	}
	return target
}

// checkReadRoutes drives every shape of answer the two read routes have and
// compares each body, byte for byte, with the oracle for the engine and
// version expected to serve it.
func checkReadRoutes(t *testing.T, h http.Handler, eng *wireEngine, version int) {
	t.Helper()
	users := []string{userHTML, userUni, userPlain}
	single := func(user string, n int) string {
		set := eng.recs[types.UserID(indexOf(users, user))]
		return oracle(t, RecommendResponse{User: user, Items: itemKeys(set[:n]), Model: eng.name, Version: version})
	}
	for _, user := range users {
		// First touch (miss unless seeded), then a hit: same bytes.
		for pass := 0; pass < 2; pass++ {
			if code, got := serveOnce(h, http.MethodGet, recommendURL(user, ""), ""); code != http.StatusOK || got != single(user, 3) {
				t.Fatalf("user %q pass %d: %d %q, want %q", user, pass, code, got, single(user, 3))
			}
		}
		for n, want := range map[string]int{"1": 1, "2": 2, "3": 3, "7": 3, "0": 3, "-2": 3, "x": 3} {
			if code, got := serveOnce(h, http.MethodGet, recommendURL(user, n), ""); code != http.StatusOK || got != single(user, want) {
				t.Fatalf("user %q n=%s: %d %q, want %q", user, n, code, got, single(user, want))
			}
		}
	}
	errBody := func(msg string) string { return oracle(t, map[string]string{"error": msg}) }
	for _, tc := range []struct {
		user string
		code int
		body string
	}{
		{`no<bo>dy&"`, http.StatusNotFound, errBody(`unknown user no<bo>dy&"`)},
		{userEmpty, http.StatusNotFound, errBody("no recommendations for user " + userEmpty)},
		{userFails, http.StatusInternalServerError, errBody(errWireEngine.Error())},
	} {
		if code, got := serveOnce(h, http.MethodGet, recommendURL(tc.user, ""), ""); code != tc.code || got != tc.body {
			t.Fatalf("user %q: %d %q, want %d %q", tc.user, code, got, tc.code, tc.body)
		}
	}

	// A batch mixing hits, unknown users, duplicates, the empty list and the
	// engine error, in an order that puts an error first and last.
	batch := []string{"nobody", userHTML, userUni, userHTML, userEmpty, userPlain, userFails, userUni, "no<bo>dy"}
	want := BatchResponse{Model: eng.name, Version: version}
	for _, user := range batch {
		el := RecommendResponse{User: user}
		switch k := indexOf(users, user); {
		case k >= 0:
			el.Items, el.Version = itemKeys(eng.recs[types.UserID(k)]), version
		case user == userEmpty:
			el.Error = "no recommendations for user " + userEmpty
		case user == userFails:
			el.Error = errWireEngine.Error()
		default:
			el.Error = "unknown user"
		}
		want.Results = append(want.Results, el)
	}
	req, _ := json.Marshal(BatchRequest{Users: batch})
	if code, got := serveOnce(h, http.MethodPost, "/recommend/batch", string(req)); code != http.StatusOK || got != oracle(t, want) {
		t.Fatalf("batch: %d %q, want %q", code, got, oracle(t, want))
	}
}

func indexOf(keys []string, key string) int {
	for k, have := range keys {
		if have == key {
			return k
		}
	}
	return -1
}

// TestReadRoutesByteIdentity pins the assembled responses to the wire types'
// own encoding: cold and warm, truncated, failing, batched, with and without
// an engine name, seeded, and across an Update.
func TestReadRoutesByteIdentity(t *testing.T) {
	for _, name := range []string{`GANC(<Pop>, θ^G & "Dyn")`, ""} {
		t.Run("model="+name, func(t *testing.T) {
			eng := newWireEngine(name, 0)
			s, err := New(wireFixture(), eng, 3)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			checkReadRoutes(t, h, eng, 1)
			if got := eng.computes.Load(); got != 3+1+2 {
				// Three lists and the empty one once each; the failing user is
				// never cached, so it computes per request (one single, one batch).
				t.Fatalf("engine computed %d times, want 6: the second pass must be served from the cache", got)
			}

			// Across an Update every tail carries the new version and model,
			// and no entry of the old generation is served.
			next := newWireEngine(name+"'", 1)
			if err := s.Update(next); err != nil {
				t.Fatal(err)
			}
			checkReadRoutes(t, h, next, 2)
		})
	}

	t.Run("batch-misses", func(t *testing.T) {
		// A cold batch: every element goes through the worker pool.
		eng := newWireEngine("m", 0)
		s, err := New(wireFixture(), eng, 3, withBatchWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		batch := []string{userPlain, userUni, userHTML, userPlain}
		want := BatchResponse{Model: "m", Version: 1}
		for _, user := range batch {
			k := indexOf([]string{userHTML, userUni, userPlain}, user)
			want.Results = append(want.Results, RecommendResponse{User: user, Items: itemKeys(eng.recs[types.UserID(k)]), Version: 1})
		}
		req, _ := json.Marshal(BatchRequest{Users: batch})
		if code, got := serveOnce(s.Handler(), http.MethodPost, "/recommend/batch", string(req)); code != http.StatusOK || got != oracle(t, want) {
			t.Fatalf("cold batch: %d %q, want %q", code, got, oracle(t, want))
		}
		// The repeated user is a hit if its first compute finished before the
		// second worker looked, a miss of its own otherwise.
		if st := s.Stats(); st.Hits+st.Misses != int64(len(batch)) || st.Misses < 3 {
			t.Fatalf("cold batch of %d (3 distinct) counted %+v: every element is exactly one hit or miss", len(batch), st)
		}
	})

	t.Run("precomputed", func(t *testing.T) {
		eng := newWireEngine("seeded", 0)
		s, err := New(wireFixture(), eng, 3)
		if err != nil {
			t.Fatal(err)
		}
		seedCache(t, s, eng.recs)
		checkReadRoutes(t, s.Handler(), eng, 1)
		if got := eng.computes.Load(); got != 2 {
			t.Fatalf("engine computed %d times over a seeded cache, want 2 (the failing user only)", got)
		}
	})
}

// TestEngineListOutsideTheCatalog: a list that cannot be rendered is the
// engine's failure, reported as such, and is not cached.
func TestEngineListOutsideTheCatalog(t *testing.T) {
	d, _ := fixture()
	for _, item := range []types.ItemID{42, -1} {
		eng := &countingEngine{name: "m", recs: types.Recommendations{0: {item}}}
		s, err := New(d, eng, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("item %d", item)
		for i := 0; i < 2; i++ {
			if code, body := serveOnce(s.Handler(), http.MethodGet, "/recommend?user=alice", ""); code != http.StatusInternalServerError || !strings.Contains(body, want) {
				t.Fatalf("request %d: %d %q, want a 500 naming %s", i, code, body, want)
			}
		}
		if st := s.Stats(); st.Size != 0 || st.Misses != 2 {
			t.Fatalf("unrenderable list was cached: %+v", st)
		}
	}
}

// Allocations per request on the hit path, through the whole handler stack
// (instrumentation middleware, mux, handler) into a recorder, by
// architecture: a word size moves what the runtime and the standard library
// allocate (a 20-user batch allocates two fewer objects on 386). They repeat
// exactly; before the list was encoded once (per-hit externalItems +
// json.NewEncoder, a channel and eight goroutines per batch) the same
// measurement read 18 and 77 on amd64. One of a batch's is the reader that
// caps its body at MaxBodyBytes.
var hitAllocs = map[string]struct{ single, batch20 float64 }{
	"amd64": {15, 50},
	"386":   {15, 48},
}

// keeper makes a countingEngine a Revalidator that keeps every list it is
// asked about, so what the server itself spends on a revalidated hit can be
// counted.
type keeper struct {
	*countingEngine
	line *Lineage
}

func (k keeper) Mark() Mark { return Mark{Lineage: k.line, Seq: 1, Items: 12} }
func (k keeper) Revalidate(types.UserID, types.TopNSet, int, Mark) Revalidation {
	return RevalKept
}

// TestHitPathAllocs is the gate on "a cached list is encoded once": a cached
// single read and an all-hit batch of 20 allocate exactly what the request
// plumbing allocates, and a batch that finds every user cached starts no
// worker, so its count does not depend on the batch-worker bound. A list a later
// generation keeps is served the same way: the server's side of a
// revalidation — the lookup, the verdict, the new stamp — allocates nothing,
// and a batch of twenty of them still starts no worker. (What the engine's
// own check allocates is TestRevalidateAllocs, in the root package.)
func TestHitPathAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	pins, ok := hitAllocs[runtime.GOARCH]
	if !ok {
		t.Skipf("no allocation counts are pinned for %s", runtime.GOARCH)
	}
	const users = 20
	b := dataset.NewBuilder("allocs", users)
	recs := types.Recommendations{}
	keys := make([]string, users)
	for u := 0; u < users; u++ {
		keys[u] = "user-" + string(rune('a'+u))
		for it := 0; it < 12; it++ {
			b.Add(keys[u], "item-"+string(rune('a'+it)), 3)
		}
		set := make(types.TopNSet, 10)
		for k := range set {
			set[k] = types.ItemID((u + k) % 12)
		}
		recs[types.UserID(u)] = set
	}
	d := b.Build()
	batchBody, _ := json.Marshal(BatchRequest{Users: keys})

	// With swap set, every measured request is preceded by a swap, so each
	// cached list it reads was stamped by the generation before and goes
	// through the engine's verdict; what the swap itself allocates is
	// measured alone and taken off.
	measure := func(workers int, swap bool) (single, batch float64) {
		eng := keeper{&countingEngine{name: "GANC(RSVD, θ^T, Dyn)", recs: recs}, new(Lineage)}
		s, err := New(d, eng, 10, WithMetrics(obs.NewRegistry()), withBatchWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		seedCache(t, s, recs)
		h := s.Handler()
		const runs = 200
		var swapAllocs float64
		update := func() {
			if err := s.Update(eng); err != nil {
				t.Fatal(err)
			}
		}
		if swap {
			swapAllocs = testing.AllocsPerRun(runs, update)
		} else {
			update = func() {}
		}
		get := httptest.NewRequest(http.MethodGet, "/recommend?user="+keys[3], nil)
		single = testing.AllocsPerRun(runs, func() {
			update()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, get)
			if rec.Code != http.StatusOK {
				t.Fatalf("single read answered %d", rec.Code)
			}
		}) - swapAllocs
		body := bytes.NewReader(batchBody)
		post := httptest.NewRequest(http.MethodPost, "/recommend/batch", body)
		batch = testing.AllocsPerRun(runs, func() {
			update()
			body.Reset(batchBody)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, post)
			if rec.Code != http.StatusOK {
				t.Fatalf("batch answered %d", rec.Code)
			}
		}) - swapAllocs
		if got := eng.computes.Load(); got != 0 {
			t.Fatalf("the engine computed %d times: the runs were not all hits", got)
		}
		wantKept := int64(0)
		if swap {
			wantKept = (runs + 1) * (1 + users) // AllocsPerRun warms up with one more run
		}
		if kept := s.Stats().Revalidations.Kept; kept != wantKept {
			t.Fatalf("%d lists were revalidated over the runs, want %d", kept, wantKept)
		}
		return single, batch
	}

	single, batch := measure(DefaultBatchWorkers, false)
	if single != pins.single || batch != pins.batch20 {
		t.Fatalf("hit path allocates %v per cached read and %v per all-hit batch of %d, want exactly %v and %v on %s",
			single, batch, users, pins.single, pins.batch20, runtime.GOARCH)
	}
	for _, workers := range []int{1, 64} {
		if _, again := measure(workers, false); again != batch {
			t.Fatalf("all-hit batch allocates %v with %d batch workers and %v with %d: it must start none",
				again, workers, batch, DefaultBatchWorkers)
		}
	}
	for _, workers := range []int{DefaultBatchWorkers, 1, 64} {
		if single, batch := measure(workers, true); single != pins.single || batch != pins.batch20 {
			t.Fatalf("with %d batch workers a revalidated read allocates %v and an all-revalidated batch of %d %v, want exactly the %v and %v of plain hits",
				workers, single, users, batch, pins.single, pins.batch20)
		}
	}
}
