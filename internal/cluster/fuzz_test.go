package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ganc/internal/serve"
)

// FuzzPeerListRouting feeds hostile peer lists and user keys to the
// cmd-line parsing and routing pipeline gancd's router runs: ParsePeerTopology
// must fail with ErrBadPeers or yield shards whose IDs are their positions
// and whose addresses — primaries and replicas alike — are all distinct, over
// which NewRing builds a ring that routes every user key to exactly one
// shard; with an arbitrary live subset, OwnerAmong lands on a live shard
// whenever one exists.
func FuzzPeerListRouting(f *testing.F) {
	f.Add("h1:8081+h1:9081,h2:8082,h3:8083+h3:9083+h3:9084", "alice", uint8(0b101))
	f.Add("", "u", uint8(0))
	f.Add(",+,", "u", uint8(1))
	f.Add("a+b,b", "u", uint8(3))
	f.Add(strings.Repeat("x", 300)+"+y", "u", uint8(7))

	f.Fuzz(func(t *testing.T, list, user string, liveMask uint8) {
		shards, err := ParsePeerTopology(list)
		if err != nil {
			if !errors.Is(err, ErrBadPeers) {
				t.Fatalf("untyped peer-list error: %v", err)
			}
			return
		}
		seen := map[string]bool{}
		for k, s := range shards {
			if s.ID != k {
				t.Fatalf("entry %d parsed with shard ID %d", k, s.ID)
			}
			for _, addr := range append([]string{s.Addr}, s.Replicas...) {
				if seen[addr] {
					t.Fatalf("address %q parsed twice from %q", addr, list)
				}
				seen[addr] = true
			}
		}
		r, err := NewRing(1, 0, shards)
		if err != nil {
			t.Fatalf("parsed peers do not build a ring: %v", err)
		}
		owner := r.Owner(user)
		if owner < 0 || owner >= r.NumShards() {
			t.Fatalf("user %q routed to out-of-range shard %d", user, owner)
		}
		if again := r.Owner(user); again != owner {
			t.Fatalf("routing of %q is not deterministic", user)
		}
		alive := func(s int) bool { return liveMask&(1<<(s%8)) != 0 }
		anyAlive := false
		for s := 0; s < r.NumShards(); s++ {
			if alive(s) {
				anyAlive = true
				break
			}
		}
		got := r.OwnerAmong(user, alive)
		switch {
		case !anyAlive && got != -1:
			t.Fatalf("no live shards but OwnerAmong returned %d", got)
		case anyAlive && (got < 0 || got >= r.NumShards() || !alive(got)):
			t.Fatalf("OwnerAmong returned %d, which is not a live shard", got)
		case anyAlive && alive(owner) && got != owner:
			t.Fatalf("owner %d is alive but OwnerAmong chose %d", owner, got)
		}
	})
}

// hostileBatchAnswers are shard answers to a two-user sub-batch that the
// router must refuse with a typed 503 rather than merge: each is a seed of
// FuzzRouterHostileShardResponse, and TestRouterRefusesHostileBatchAnswers
// pins the code each one gets. A declared length above 0 is sent as the
// answer's Content-Length whatever the body holds.
var hostileBatchAnswers = []struct {
	name     string
	body     string
	declared int
	code     string
}{
	{"too few results", `{"model":"m","version":1,"results":[{"user":"u"}]}`, 0, "shard_response"},
	{"too many results", `{"model":"m","version":1,"results":[{"user":"u"},{"user":"v"},{"user":"w"}]}`, 0, "shard_response"},
	{"results are numbers", `{"model":"m","version":1,"results":[1,2]}`, 0, "shard_response"},
	{"results are null and a string", `{"model":"m","version":1,"results":[null,"{"]}`, 0, "shard_response"},
	{"results is an object", `{"model":"m","version":1,"results":{}}`, 0, "shard_response"},
	{"trailing garbage", `{"model":"m","version":1,"results":[{"user":"u"},{"user":"v"}]} x`, 0, "shard_response"},
	{"truncated element", `{"model":"m","version":1,"results":[{"user":"u"},{"user":"v"`, 0, "shard_response"},
	{"envelope field of the wrong type", `{"model":7,"version":1,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"declares 64 MiB, sends 10 bytes", `{"model":"`, 64 << 20, "shard_unavailable"},
}

// hostileShard answers every request with the given status and body, and,
// when declared is positive, with that Content-Length regardless of the body.
func hostileShard(status int, body []byte, declared int) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if declared > 0 {
			w.Header().Set("Content-Length", strconv.Itoa(declared))
		}
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}))
}

// FuzzRouterHostileShardResponse stands a fake shard that answers every
// request with attacker-controlled status, body and declared length, and
// drives every router route through it. The router must never panic and must
// answer each client with a bounded, well-formed status: a passthrough, a 4xx
// of its own, or a typed 503. On POST /recommend/batch, where it merges
// instead of relaying, a 200 is additionally a valid JSON document whose
// envelope decodes — model, version, shards, and results holding exactly one
// JSON object per requested user. The types of the fields inside an element
// are not checked: the router relays an element's bytes as the single-user
// passthrough has always relayed a whole body.
func FuzzRouterHostileShardResponse(f *testing.F) {
	f.Add(200, []byte("{}"), 0)
	f.Add(200, []byte("\x00\xff not json"), 0)
	f.Add(200, []byte(`{"results":[{"user":"u"}],"model":"m","version":1}`), 0)
	f.Add(500, []byte("boom"), 0)
	f.Add(404, []byte(`{"error":"nope"}`), 0)
	f.Add(200, []byte(`{"results":[],"version":-9}`), 0)
	f.Add(200, []byte(`{"model":"m","version":1,"results":[{"user":"u","items":["i"],"version":1},{"user":7,"items":{}}]}`), 0)
	for _, h := range hostileBatchAnswers {
		f.Add(200, []byte(h.body), h.declared)
	}

	users := []string{"u", "v"}
	f.Fuzz(func(t *testing.T, status int, body []byte, declared int) {
		if status < 100 || status > 999 {
			status = 200 + (((status % 500) + 500) % 500)
		}
		shard := hostileShard(status, body, declared)
		defer shard.Close()
		ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: strings.TrimPrefix(shard.URL, "http://")}})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRouter(RouterConfig{Ring: ring, Retries: 0})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()

		check := func(route string, resp *http.Response, err error) []byte {
			if err != nil {
				t.Fatalf("%s: transport error through router: %v", route, err)
			}
			defer resp.Body.Close()
			answer, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("%s: reading router answer: %v", route, err)
			}
			if resp.StatusCode < 200 || resp.StatusCode > 599 {
				t.Fatalf("%s: router produced status %d", route, resp.StatusCode)
			}
			if resp.StatusCode != http.StatusOK {
				return nil
			}
			return answer
		}

		resp, err := http.Get(ts.URL + "/recommend?user=u")
		check("/recommend", resp, err)
		batch, _ := json.Marshal(serve.BatchRequest{Users: users})
		resp, err = http.Post(ts.URL+"/recommend/batch", "application/json", bytes.NewReader(batch))
		if merged := check("/recommend/batch", resp, err); merged != nil {
			var env struct {
				Model   *string           `json:"model"`
				Version *int              `json:"version"`
				Results []json.RawMessage `json:"results"`
				Shards  []ShardBatchMeta  `json:"shards"`
			}
			if err := json.Unmarshal(merged, &env); err != nil {
				t.Fatalf("/recommend/batch: 200 with a body that does not decode: %v\n%s", err, merged)
			}
			if env.Model == nil || env.Version == nil || len(env.Shards) != 1 || len(env.Results) != len(users) {
				t.Fatalf("/recommend/batch: 200 with a broken envelope for %d users: %s", len(users), merged)
			}
			for k, el := range env.Results {
				if len(el) == 0 || el[0] != '{' {
					t.Fatalf("/recommend/batch: result %d of a 200 is not a JSON object: %s", k, merged)
				}
			}
		}
		ing, _ := json.Marshal(serve.IngestRequest{Events: []serve.IngestEvent{{User: "u", Item: "i", Value: 1}}})
		resp, err = http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(ing))
		check("/ingest", resp, err)
		resp, err = http.Get(ts.URL + "/info")
		check("/info", resp, err)
		resp, err = http.Get(ts.URL + "/health")
		check("/health", resp, err)
		resp, err = http.Get(ts.URL + "/users")
		check("/users", resp, err)
	})
}

// FuzzDetectorHostileHealth stands hostile nodes whose /health answers
// attacker-controlled status and body, and drives a router's failure detector
// (NewRouter's first sample plus one driven here) and a detector-routed read
// through them. The contract: the detector never panics, a malformed answer
// (non-200 or undecodable JSON) is a miss — never adopted into the liveness
// view as an alive row with a garbage cursor — the cached view only ever
// contains ring addresses, and the router fronting that view still answers
// every client with a bounded, well-formed status.
func FuzzDetectorHostileHealth(f *testing.F) {
	f.Add(200, []byte("{}"))
	f.Add(200, []byte(`{"status":"ok","shard":0,"replication":{"role":"replica","applied_seq":18446744073709551615,"lag_events":7}}`))
	f.Add(200, []byte("\x00\xff not json"))
	f.Add(200, []byte(`{"replication":{"applied_seq":-1}}`))
	f.Add(500, []byte("boom"))
	f.Add(204, []byte{})
	f.Add(200, []byte(`{"replication":`))

	f.Fuzz(func(t *testing.T, status int, body []byte) {
		// 1xx is excluded: the server treats it as informational and the
		// handler's body write becomes a separate final 200, so the probe
		// legitimately sees a different status than the fuzzer chose.
		if status < 200 || status > 999 {
			status = 200 + (((status % 500) + 500) % 500)
		}
		hostile := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			_, _ = w.Write(body)
		})
		primary := httptest.NewServer(hostile)
		defer primary.Close()
		replica := httptest.NewServer(hostile)
		defer replica.Close()
		pAddr := strings.TrimPrefix(primary.URL, "http://")
		rAddr := strings.TrimPrefix(replica.URL, "http://")

		ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: pAddr, Replicas: []string{rAddr}}})
		if err != nil {
			t.Fatal(err)
		}
		rt, d := detectorRouter(t, RouterConfig{Ring: ring, SuspectAfter: 1, Retries: 0})
		d.sample()

		// The answer is adoptable only when it is a 200 carrying valid JSON —
		// the same decode the probe performs. Anything else must read as a
		// dead node, not as an alive row with a poisoned cursor.
		var parsed serve.HealthResponse
		adoptable := status == http.StatusOK && json.Unmarshal(body, &parsed) == nil
		for _, addr := range []string{pAddr, rAddr} {
			row, ok := d.Node(addr)
			if !ok {
				t.Fatalf("sampled node %s missing from the view", addr)
			}
			if row.Alive != adoptable {
				t.Fatalf("node %s alive=%v after a status-%d answer (adoptable=%v)", addr, row.Alive, status, adoptable)
			}
			if adoptable && parsed.Replication != nil && row.AppliedSeq != parsed.Replication.AppliedSeq {
				t.Fatalf("view cursor %d does not match the served cursor %d", row.AppliedSeq, parsed.Replication.AppliedSeq)
			}
			if !adoptable && row.AppliedSeq != 0 {
				t.Fatalf("a malformed answer poisoned node %s's cursor to %d", addr, row.AppliedSeq)
			}
		}
		for _, row := range d.View() {
			if row.Addr != pAddr && row.Addr != rAddr {
				t.Fatalf("view invented address %q", row.Addr)
			}
		}
		if addr, ok := d.FreshestReplica([]string{rAddr}, 1<<40); ok && addr != rAddr {
			t.Fatalf("FreshestReplica returned %q, not a candidate", addr)
		}

		ts := httptest.NewServer(rt.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/recommend?user=u")
		if err != nil {
			t.Fatalf("transport error through router: %v", err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("reading router answer: %v", err)
		}
		if resp.StatusCode < 200 || resp.StatusCode > 599 {
			t.Fatalf("router produced status %d", resp.StatusCode)
		}
	})
}

// FuzzRingOwnershipPartition drives the partition property the scatter
// paths rely on directly: for any shard count and any two user keys, owners
// are in range, equal keys share an owner, and the partition of a batch by
// owner covers each key exactly once.
func FuzzRingOwnershipPartition(f *testing.F) {
	f.Add(uint8(3), "alice", "bob")
	f.Add(uint8(1), "", "x")
	f.Add(uint8(16), "sim-user-7-0000001", "sim-user-7-0000002")

	f.Fuzz(func(t *testing.T, n uint8, a, b string) {
		shardCount := int(n)%16 + 1
		r, err := NewUniformRing(1, shardCount)
		if err != nil {
			t.Fatal(err)
		}
		users := []string{a, b, a + b, fmt.Sprintf("%s|%s", a, b)}
		seen := make(map[string]int)
		for _, u := range users {
			owner := r.Owner(u)
			if owner < 0 || owner >= shardCount {
				t.Fatalf("user %q routed to shard %d of %d", u, owner, shardCount)
			}
			if prev, ok := seen[u]; ok && prev != owner {
				t.Fatalf("user %q owned by both shard %d and shard %d", u, prev, owner)
			}
			seen[u] = owner
		}
	})
}
