package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"ganc/internal/serve"
)

// ringNode is a replica of shard 0 at epoch whose adopt action counts its
// calls and flips the role as a ShardNode's does.
func ringNode(epoch uint64) (*Node, *int) {
	adopted := new(int)
	var n *Node
	n = NewNode(0, epoch, &countingBackend{}, nil, func(c RingChange) error {
		*adopted++
		if c.Primary {
			n.SetPrimary(true)
		}
		return nil
	})
	return n, adopted
}

// postRing sends one body to a node's POST /admin/ring and decodes the answer.
func postRing(t *testing.T, h http.Handler, method, body string) (int, ringAnswer) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, RingPath, strings.NewReader(body)))
	var ans ringAnswer
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatalf("undecodable answer %q to %s", rec.Body.String(), truncate([]byte(body)))
	}
	return rec.Code, ans
}

// TestRingChangeRoute walks POST /admin/ring through its checks, in order: a
// malformed, oversized or GET request, another shard's change, a stale
// epoch; a newer change adopted (a replica promoted); the same change again
// accepted without a second action; and a demotion of the live primary
// refused.
func TestRingChangeRoute(t *testing.T) {
	n, adopted := ringNode(5)
	h := n.Mount(http.NotFoundHandler())
	promote := `{"shard":0,"epoch":6,"num_shards":2,"primary":true,"replicas":["r:1"]}`
	for _, tc := range []struct {
		name, method, body string
		status             int
		code               string
		epoch              uint64
		adopted            int
	}{
		{"GET", http.MethodGet, "", http.StatusMethodNotAllowed, "ring_body", 5, 0},
		{"not JSON", http.MethodPost, "not json", http.StatusBadRequest, "ring_body", 5, 0},
		{"shard outside the ring", http.MethodPost, `{"shard":2,"epoch":6,"num_shards":2}`, http.StatusBadRequest, "ring_body", 5, 0},
		{"oversized", http.MethodPost, `{"replicas":["` + strings.Repeat("x", serve.MaxBodyBytes) + `"]}`, http.StatusRequestEntityTooLarge, "ring_body", 5, 0},
		{"another shard", http.MethodPost, `{"shard":1,"epoch":6,"num_shards":2}`, http.StatusConflict, "ring_shard", 5, 0},
		{"stale epoch", http.MethodPost, `{"shard":0,"epoch":5,"num_shards":2}`, http.StatusConflict, "ring_epoch", 5, 0},
		{"promotion", http.MethodPost, promote, http.StatusOK, "", 6, 1},
		{"retried promotion", http.MethodPost, promote, http.StatusOK, "", 6, 1},
		{"demotion", http.MethodPost, `{"shard":0,"epoch":7,"num_shards":2}`, http.StatusConflict, "ring_role", 6, 1},
	} {
		status, ans := postRing(t, h, tc.method, tc.body)
		if status != tc.status || ans.Code != tc.code || ans.Epoch != tc.epoch || *adopted != tc.adopted || (tc.code != "") != (ans.Error != "") {
			t.Fatalf("%s: answered %d %+v after %d adoptions; want %d code %q at epoch %d after %d",
				tc.name, status, ans, *adopted, tc.status, tc.code, tc.epoch, tc.adopted)
		}
	}
	if !n.Primary() {
		t.Fatal("the adopted promotion left the node a replica")
	}
}

// FuzzRingChangeHostileBody throws attacker-controlled bytes at POST
// /admin/ring on a node already at the last epoch there is, so no body can be
// newer. The contract: the handler never panics, answers 400, 409 or 413
// with a typed ring_* code, never runs the node's action and never moves its
// epoch or role.
func FuzzRingChangeHostileBody(f *testing.F) {
	for _, seed := range []string{
		`{"shard":0,"epoch":18446744073709551615,"num_shards":1,"primary":true}`,
		`{"shard":0,"epoch":18446744073709551615,"num_shards":1}`,
		`{"shard":0,"epoch":1,"num_shards":4,"primary":true,"replicas":["a:1","b:2"]}`,
		`{"shard":3,"epoch":9,"num_shards":4}`,
		`{"shard":-1,"epoch":9,"num_shards":1}`,
		`{"shard":0,"epoch":9,"num_shards":0}`,
		`{"shard":0,"epoch":9,"num_shards":1,"replicas":[""]}`,
		`{"shard":0,"epoch":-1}`,
		`not json`,
		``,
		strings.Repeat(`[`, 4096),
	} {
		f.Add([]byte(seed))
	}
	allowed := map[int]bool{http.StatusBadRequest: true, http.StatusConflict: true, http.StatusRequestEntityTooLarge: true}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n, adopted := ringNode(math.MaxUint64)
		rec := httptest.NewRecorder()
		n.Mount(http.NotFoundHandler()).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, RingPath, bytes.NewReader(raw)))
		var ans ringAnswer
		if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
			t.Fatalf("undecodable answer %q for body %q", rec.Body.String(), truncate(raw))
		}
		if !allowed[rec.Code] || !strings.HasPrefix(ans.Code, "ring_") || ans.Error == "" {
			t.Fatalf("answered %d %+v for body %q, want a typed 400, 409 or 413", rec.Code, ans, truncate(raw))
		}
		if *adopted != 0 || n.ringEpoch() != math.MaxUint64 || ans.Epoch != math.MaxUint64 || n.Primary() {
			t.Fatalf("body %q ran the action %d times and left the node at epoch %d (primary %v)", truncate(raw), *adopted, n.ringEpoch(), n.Primary())
		}
	})
}

// FuzzReshardRouteHostileQuery throws hostile target and add values at the
// router's POST /admin/reshard over the fabric — two serving shards and a
// spare node. Every answer is a typed 200, 400 or 409 with a decodable body;
// a refusal leaves the router on its ring with no transition in flight and no
// node pushed a ring change, and a published reshard routes the asked-for
// shard count at the next epoch.
func FuzzReshardRouteHostileQuery(f *testing.F) {
	for _, seed := range [][2]string{
		{"3", "node-2.mem"}, {"1", ""}, {"2", ""}, {"0", ""}, {"-1", ""}, {"abc", ""},
		{"99999999999999999999", ""}, {"3", ""}, {"3", "a:1,,b:2"}, {"3", "node-0.mem"},
		{"3", "nobody.mem"}, {"4", "node-2.mem,x.mem"}, {"3", "node-2.mem+node-2.mem"},
		{"1", "node-2.mem"}, {"3", strings.Repeat("x", 300)},
	} {
		f.Add(seed[0], seed[1])
	}
	allowed := map[int]bool{http.StatusOK: true, http.StatusBadRequest: true, http.StatusConflict: true}
	f.Fuzz(func(t *testing.T, target, add string) {
		rig := newCutoverRig(t, 2, 3)
		old := rig.rt.Ring()
		query := url.Values{"target": {target}, "add": {add}}.Encode()
		rec := httptest.NewRecorder()
		rig.rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reshard?"+query, nil))
		var body map[string]interface{}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !allowed[rec.Code] {
			t.Fatalf("?%s answered %d %q (%v), want a decodable 200, 400 or 409", query, rec.Code, rec.Body, err)
		}
		ring := rig.rt.Ring()
		if rig.rt.reshard.Load() != nil {
			t.Fatalf("?%s left a transition in flight", query)
		}
		if rec.Code == http.StatusOK {
			if n, _ := strconv.Atoi(target); ring.Epoch() != 2 || ring.NumShards() != n {
				t.Fatalf("?%s published %d shards at epoch %d, want %d at epoch 2", query, ring.NumShards(), ring.Epoch(), n)
			}
			return
		}
		if body["error"] == "" || ring != old {
			t.Fatalf("?%s answered %d %v and moved the router to %d shards at epoch %d", query, rec.Code, body, ring.NumShards(), ring.Epoch())
		}
		for _, s := range rig.shards {
			if len(s.rings) != 0 {
				t.Fatalf("?%s was refused, and %s adopted %+v", query, s.addr, s.rings)
			}
		}
	})
}
