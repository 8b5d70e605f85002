package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
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
// answer frame's length whatever the body holds.
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
	// Shapes decoding the envelope merged as a model "" or a version 0, or
	// read one of two ways; the router's split refuses them.
	{"model is null", `{"model":null,"version":1,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"no model", `{"version":1,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"no version", `{"model":"m","results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"two results keys", `{"model":"m","version":1,"results":[{"user":"u"}],"results":[{"user":"v"}]}`, 0, "shard_response"},
	{"two model keys", `{"model":"m","model":"m","version":1,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"model key in capitals", `{"MODEL":"m","model":"m","version":1,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"fractional version", `{"model":"m","version":1.5,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"version with an exponent", `{"model":"m","version":1e3,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"version overflows int", `{"model":"m","version":99999999999999999999,"results":[{"user":"u"},{"user":"v"}]}`, 0, "shard_response"},
	{"declares 64 MiB, sends 10 bytes", `{"model":"`, 64 << 20, "shard_unavailable"},
}

// Hostile answer modes, taken modulo 4: an upgrade and an answer frame, a
// refused upgrade, the body alone in place of the upgrade's answer, and an
// upgrade followed by three bytes of a frame header.
const (
	answerFrame uint8 = iota
	refusedUpgrade
	garbledUpgrade
	shortHeader
)

// hostileNodes dials the nodes at addrs, each of which answers every
// connection by mode: under answerFrame, every request frame it reads gets one
// answer frame declaring declared bytes and status and carrying as much of
// body as it declares. A frame that sends less than it declares, and every
// other mode, closes the connection once written. Any other address refuses
// the dial.
func hostileNodes(mode uint8, status uint16, declared uint32, body []byte, addrs ...string) func(ctx context.Context, network, addr string) (net.Conn, error) {
	frame := binary.BigEndian.AppendUint32(nil, declared)
	frame = binary.BigEndian.AppendUint16(frame, status)
	frame = append(frame, body[:min(uint64(declared), uint64(len(body)))]...)
	complete := uint64(declared) <= uint64(len(body))
	return func(_ context.Context, _, addr string) (net.Conn, error) {
		if !slices.Contains(addrs, addr) {
			return nil, &net.OpError{Op: "dial", Net: "hostile", Err: errors.New("connection refused")}
		}
		near, far := net.Pipe()
		go func() {
			defer far.Close()
			br := bufio.NewReader(far)
			if _, err := http.ReadRequest(br); err != nil {
				return
			}
			switch mode % 4 {
			case refusedUpgrade:
				far.Write([]byte("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"))
				return
			case garbledUpgrade:
				far.Write(body)
				return
			}
			if _, err := far.Write([]byte(hopSwitch)); err != nil {
				return
			}
			var hdr [reqHeaderLen]byte
			for {
				if _, err := io.ReadFull(br, hdr[:]); err != nil {
					return
				}
				rest := int64(binary.BigEndian.Uint32(hdr[0:4])) + int64(hdr[4]) + int64(binary.BigEndian.Uint16(hdr[5:7]))
				if _, err := io.CopyN(io.Discard, br, rest); err != nil {
					return
				}
				if mode%4 == shortHeader {
					far.Write(frame[:3])
					return
				}
				if _, err := far.Write(frame); err != nil || !complete {
					return
				}
			}
		}()
		return near, nil
	}
}

// FuzzRouterHostileShardResponse stands fake nodes that answer every
// connection with an attacker-controlled hop upgrade and answer frame —
// refused or garbled upgrades, short headers, lengths over the caller's limit
// or longer than what follows, statuses out of range — and drives every router
// route through them, then a promotion and a reshard, so that every kind of
// answer the router reads over its hop — shard answers, /health probes,
// ring-push answers and tail-pull answers — comes from the fuzzer. The router
// must never panic and must answer each client with a bounded, well-formed
// status: a passthrough, a 4xx of its own, or a typed 503. On POST
// /recommend/batch, where it merges instead of relaying, a 200 is
// additionally a valid JSON document whose envelope decodes — model, version,
// shards, and results holding exactly one JSON object per requested user. The
// types of the fields inside an element are not checked: the router relays an
// element's bytes as the single-user passthrough has always relayed a whole
// body. A promotion or a reshard either publishes its ring or leaves the
// router on the one it had.
func FuzzRouterHostileShardResponse(f *testing.F) {
	seed := func(status uint16, body string) { f.Add(answerFrame, status, uint32(len(body)), []byte(body)) }
	seed(200, "{}")
	seed(200, "\x00\xff not json")
	seed(200, `{"results":[{"user":"u"}],"model":"m","version":1}`)
	seed(500, "boom")
	seed(404, `{"error":"nope"}`)
	seed(200, `{"results":[],"version":-9}`)
	seed(200, `{"model":"m","version":1,"results":[{"user":"u","items":["i"],"version":1},{"user":7,"items":{}}]}`)
	for _, h := range hostileBatchAnswers {
		declared := uint32(len(h.body))
		if h.declared > 0 {
			declared = uint32(h.declared)
		}
		f.Add(answerFrame, uint16(200), declared, []byte(h.body))
	}
	// A gap at cursor 0 ends every tail pull at once: the reshard reaches its
	// ring pushes, which the node then refuses.
	seed(409, `{"gap":true,"cursor":0,"code":"replicate_gap"}`)
	f.Add(refusedUpgrade, uint16(200), uint32(2), []byte("{}"))
	f.Add(garbledUpgrade, uint16(200), uint32(2), []byte("HTTP/1.1 101 \r\n\r\n{}"))
	f.Add(shortHeader, uint16(200), uint32(2), []byte("{}"))
	f.Add(answerFrame, uint16(200), uint32(maxShardResponse+1), []byte("{}"))
	f.Add(answerFrame, uint16(0), uint32(2), []byte("{}"))
	f.Add(answerFrame, uint16(700), uint32(2), []byte("{}"))

	users := []string{"u", "v"}
	f.Fuzz(func(t *testing.T, mode uint8, status uint16, declared uint32, body []byte) {
		hostile := []string{"hostile-0.mem", "hostile-1.mem"}
		dial := hostileNodes(mode, status, declared, body, hostile...)
		ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: hostile[0]}})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := NewRouter(RouterConfig{Ring: ring, Dial: dial, attempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
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

		// Promotion: the primary is dead, so the replica's /health probe and
		// the ring pushes are the node's answers.
		replicated, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: "dead.mem", Replicas: hostile[:1]}})
		if err != nil {
			t.Fatal(err)
		}
		prt, _ := detectorRouter(t, RouterConfig{Ring: replicated, Dial: dial})
		if epoch, err := prt.Promote(0); err == nil {
			if r := prt.Ring(); r.Epoch() != epoch || r.Shard(0).Addr != hostile[0] {
				t.Fatalf("promotion returned epoch %d but the router routes by epoch %d, primary %s", epoch, r.Epoch(), r.Shard(0).Addr)
			}
		} else if prt.Ring() != replicated {
			t.Fatalf("a failed promotion (%v) changed the ring", err)
		}

		// Reshard: the tail pulls and the ring pushes are the nodes' answers.
		next, err := NewRing(2, 0, []ShardInfo{{ID: 0, Addr: hostile[0]}, {ID: 1, Addr: hostile[1]}})
		if err != nil {
			t.Fatal(err)
		}
		if stats, err := rt.Reshard(next); stats != nil {
			if r := rt.Ring(); r.NumShards() != 2 || r.Epoch() != stats.Epoch {
				t.Fatalf("reshard reported epoch %d but the router routes by %d shards at epoch %d", stats.Epoch, r.NumShards(), r.Epoch())
			}
		} else if rt.Ring() != ring || rt.reshard.Load() != nil {
			t.Fatalf("a failed reshard (%v) left the router off its ring", err)
		}
	})
}

// FuzzDetectorHostileHealth stands hostile nodes whose hop answers every
// /health probe with an attacker-controlled upgrade and answer frame (see
// hostileNodes), and drives a router's failure detector (NewRouter's first
// sample plus one driven here) and a detector-routed read through them. The
// contract: the detector never panics, a malformed answer (a failed upgrade,
// a broken frame, a non-200 status or undecodable JSON) is a miss — never
// adopted into the liveness view as an alive row with a garbage cursor — the
// cached view only ever contains ring addresses, and the router fronting
// that view still answers every client with a bounded, well-formed status.
func FuzzDetectorHostileHealth(f *testing.F) {
	seed := func(status uint16, body string) { f.Add(answerFrame, status, uint32(len(body)), []byte(body)) }
	seed(200, "{}")
	seed(200, `{"status":"ok","shard":0,"replication":{"role":"replica","applied_seq":18446744073709551615,"lag_events":7}}`)
	seed(200, "\x00\xff not json")
	seed(200, `{"replication":{"applied_seq":-1}}`)
	seed(500, "boom")
	seed(204, "")
	seed(200, `{"replication":`)
	f.Add(refusedUpgrade, uint16(200), uint32(2), []byte("{}"))
	f.Add(garbledUpgrade, uint16(200), uint32(2), []byte("HTTP/1.0 200 OK\r\n\r\n{}"))
	f.Add(shortHeader, uint16(200), uint32(2), []byte("{}"))
	f.Add(answerFrame, uint16(200), uint32(40), []byte(`{"status":"ok"}`))
	f.Add(answerFrame, uint16(99), uint32(2), []byte("{}"))

	f.Fuzz(func(t *testing.T, mode uint8, status uint16, declared uint32, body []byte) {
		pAddr, rAddr := "primary.mem", "replica.mem"
		ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: pAddr, Replicas: []string{rAddr}}})
		if err != nil {
			t.Fatal(err)
		}
		rt, d := detectorRouter(t, RouterConfig{Ring: ring, Dial: hostileNodes(mode, status, declared, body, pAddr, rAddr), suspectAfter: 1, attempts: 1})
		d.sample()

		// The answer is adoptable only when the upgrade succeeds and its one
		// frame is whole, a 200, and valid JSON — the same decode the probe
		// performs. Anything else must read as a dead node, not as an alive
		// row with a poisoned cursor.
		var parsed serve.HealthResponse
		adoptable := mode%4 == answerFrame && uint64(declared) <= uint64(len(body)) && status == http.StatusOK &&
			json.Unmarshal(body[:declared], &parsed) == nil
		for _, addr := range []string{pAddr, rAddr} {
			row, ok := d.Node(addr)
			if !ok {
				t.Fatalf("sampled node %s missing from the view", addr)
			}
			if row.Alive != adoptable {
				t.Fatalf("node %s alive=%v after a mode-%d status-%d answer (adoptable=%v)", addr, row.Alive, mode%4, status, adoptable)
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

// FuzzHopHostileRequest writes arbitrary bytes to a node's hop after the
// upgrade. The node must never panic, must serve only well-formed frames, and
// must allocate no more than the body cap whatever lengths the bytes declare:
// a frame declaring a body over the cap, or malformed, closes the connection
// before anything is allocated for it.
func FuzzHopHostileRequest(f *testing.F) {
	frame := func(method, path string, body []byte) []byte {
		out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		out = append(out, byte(len(method)))
		out = binary.BigEndian.AppendUint16(out, uint16(len(path)))
		return append(append(append(out, method...), path...), body...)
	}
	f.Add(frame("GET", "/health", nil))
	f.Add(frame("POST", "/replicate", []byte(`{"shard":0,"epoch":1,"first":1,"head":1,"events":[{"user":"u","item":"i","value":1}]}`)))
	f.Add(append(frame("GET", "/recommend?user=u", nil), frame("POST", "/admin/ring", []byte(`{}`))...))
	f.Add(frame("GET", "/hop", nil))
	f.Add(binary.BigEndian.AppendUint32(nil, serve.MaxBodyBytes+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 1<<31), 4, 0xff, 0xff))
	f.Add(frame("", "/x", nil))
	f.Add(frame("GET", "no-slash", nil))
	f.Add(frame("GET", "/%zz", nil))
	f.Add(frame("POST", "/replicate", []byte("{"))[:12])
	f.Add([]byte{0, 0, 1})

	f.Fuzz(func(t *testing.T, stream []byte) {
		n := NewNode(0, 1, &countingBackend{}, nil, func(RingChange) error { return nil })
		h := n.Mount(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, serve.MaxBodyBytes))
			if err != nil {
				w.WriteHeader(http.StatusRequestEntityTooLarge)
			}
			_, _ = w.Write(body)
		}))
		near, far := net.Pipe()
		done := make(chan struct{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			defer close(done)
			serveHop(far, bufio.NewReader(far), h)
		}()
		go io.Copy(io.Discard, near)
		_, _ = near.Write(stream)
		near.Close()
		<-done
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > serve.MaxBodyBytes {
			t.Fatalf("%d bytes of hostile frames allocated %d bytes, over the %d-byte body cap", len(stream), grew, serve.MaxBodyBytes)
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
