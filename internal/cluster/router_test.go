package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ganc/internal/dataset"
	"ganc/internal/serve"
	"ganc/internal/types"
)

// echoEngine answers every known user with a deterministic single-item list
// derived from the user id, counting computes — enough to tell which shard
// actually served a request.
type echoEngine struct {
	name     string
	items    int
	computes atomic.Int64
}

// Name implements serve.Engine.
func (e *echoEngine) Name() string { return e.name }

// RecommendUser implements serve.Engine.
func (e *echoEngine) RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error) {
	e.computes.Add(1)
	return types.TopNSet{types.ItemID(int(u) % e.items)}, nil
}

// escapedUsers are keys encoding/json does not write as they are (HTML
// escaping, quotes, raw non-ASCII, the U+2028 escape): what the router relays
// for them must still be the shard's bytes.
var escapedUsers = []string{`al<ice>&"q"`, "bøb\u2028日本"}

// testShard is one live shard: its server, engine and HTTP listener.
type testShard struct {
	srv *serve.Server
	eng *echoEngine
	ts  *httptest.Server
}

// clusterFixture stands up n real shard servers over a shared tiny universe
// and a router in front of them. Every shard holds the full identifier
// tables (the replicated-universe model the cluster tier uses), so any shard
// can resolve any user — ownership decides which one is asked.
func clusterFixture(t testing.TB, n int, opts ...func(*RouterConfig)) (*Router, []*testShard) {
	t.Helper()
	const users, items = 40, 12
	shards := make([]*testShard, n)
	infos := make([]ShardInfo, n)
	for i := 0; i < n; i++ {
		b := dataset.NewBuilder("tiny", users)
		for u := 0; u < users; u++ {
			b.Add(fmt.Sprintf("user-%d", u), fmt.Sprintf("item-%d", u%items), 5)
		}
		for it := 0; it < items; it++ {
			b.Add("user-0", fmt.Sprintf("item-%d", it), 3)
		}
		for _, user := range escapedUsers {
			b.Add(user, "item-0", 4)
		}
		d := b.Build()
		eng := &echoEngine{name: "echo", items: items}
		srv, err := serve.New(d, eng, 3,
			serve.WithShardIdentity(serve.ShardIdentity{ShardID: i, NumShards: n, RingEpoch: 1}))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards[i] = &testShard{srv: srv, eng: eng, ts: ts}
		infos[i] = ShardInfo{ID: i, Addr: strings.TrimPrefix(ts.URL, "http://")}
	}
	ring, err := NewRing(1, 0, infos)
	if err != nil {
		t.Fatal(err)
	}
	cfg := RouterConfig{Ring: ring, Retries: 1, retryBackoff: 5 * time.Millisecond, probeTimeout: 2 * time.Second}
	for _, opt := range opts {
		opt(&cfg)
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, shards
}

// routerServer mounts the router on its own listener.
func routerServer(t testing.TB, rt *Router) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t testing.TB, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postJSON(t testing.TB, url string, body, out interface{}) int {
	t.Helper()
	status, answer := postRaw(t, url, body)
	if out != nil {
		if err := json.Unmarshal(answer, out); err != nil {
			t.Fatalf("decoding %s answer: %v", url, err)
		}
	}
	return status
}

// postRaw posts a JSON body and returns the status and the answer's bytes.
func postRaw(t testing.TB, url string, body interface{}) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, answer
}

// TestRouterRecommendRoutesToOwner: a single-user read must be computed by
// exactly the owning shard, and the answer must match asking that shard
// directly.
func TestRouterRecommendRoutesToOwner(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	ts := routerServer(t, rt)
	for u := 0; u < 20; u++ {
		user := fmt.Sprintf("user-%d", u)
		owner := rt.Owner(user)
		before := make([]int64, len(shards))
		for i, s := range shards {
			before[i] = s.eng.computes.Load()
		}
		var viaRouter serve.RecommendResponse
		if status := getJSON(t, ts.URL+"/recommend?user="+user, &viaRouter); status != http.StatusOK {
			t.Fatalf("user %s: router answered %d", user, status)
		}
		var direct serve.RecommendResponse
		if status := getJSON(t, shards[owner].ts.URL+"/recommend?user="+user, &direct); status != http.StatusOK {
			t.Fatalf("user %s: owner shard answered %d", user, status)
		}
		if strings.Join(viaRouter.Items, ",") != strings.Join(direct.Items, ",") {
			t.Fatalf("user %s: routed answer %v != owner answer %v", user, viaRouter.Items, direct.Items)
		}
		for i, s := range shards {
			grew := s.eng.computes.Load() - before[i]
			if i != owner && grew > 0 {
				t.Fatalf("user %s (owner %d): shard %d computed %d times", user, owner, i, grew)
			}
		}
	}
}

// TestRouterRecommendPassesThroughClientErrors: unknown users and missing
// parameters surface as the shard's (or router's) 4xx, never a 503.
func TestRouterRecommendPassesThroughClientErrors(t *testing.T) {
	rt, _ := clusterFixture(t, 3)
	ts := routerServer(t, rt)
	if status := getJSON(t, ts.URL+"/recommend?user=never-seen", nil); status != http.StatusNotFound {
		t.Fatalf("unknown user answered %d, want 404 passthrough", status)
	}
	if status := getJSON(t, ts.URL+"/recommend", nil); status != http.StatusBadRequest {
		t.Fatalf("missing user answered %d, want 400", status)
	}
}

// TestRouterBatchScatterGather: a batch spanning all shards comes back in
// request order with per-user answers identical to direct owner calls, and
// the scatter metadata accounts for every user exactly once.
func TestRouterBatchScatterGather(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	ts := routerServer(t, rt)
	users := make([]string, 25)
	for k := range users {
		users[k] = fmt.Sprintf("user-%d", k)
	}
	users = append(users, "nobody-home")
	var got BatchResponse
	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: users}, &got); status != http.StatusOK {
		t.Fatalf("batch answered %d", status)
	}
	if len(got.Results) != len(users) {
		t.Fatalf("batch returned %d results for %d users", len(got.Results), len(users))
	}
	metaUsers := 0
	for _, m := range got.Shards {
		metaUsers += m.Users
		if m.Version != 1 {
			t.Fatalf("shard %d reported version %d, want 1", m.Shard, m.Version)
		}
	}
	if metaUsers != len(users) {
		t.Fatalf("scatter metadata covers %d users, want %d", metaUsers, len(users))
	}
	if got.Version != len(got.Shards) {
		t.Fatalf("aggregate version %d, want sum of %d shard versions", got.Version, len(got.Shards))
	}
	for k, res := range got.Results {
		if res.User != users[k] {
			t.Fatalf("result %d is for %q, want %q (order broken)", k, res.User, users[k])
		}
		if users[k] == "nobody-home" {
			if res.Error == "" {
				t.Fatal("unknown user did not get an inline error")
			}
			continue
		}
		var direct serve.RecommendResponse
		getJSON(t, shards[rt.Owner(users[k])].ts.URL+"/recommend?user="+users[k], &direct)
		if strings.Join(res.Items, ",") != strings.Join(direct.Items, ",") {
			t.Fatalf("user %s: batch answer %v != owner answer %v", users[k], res.Items, direct.Items)
		}
	}
	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{}, nil); status != http.StatusBadRequest {
		t.Fatalf("empty batch answered %d, want 400", status)
	}
	// The router enforces the single-node size limit itself: clients must
	// not be able to tell a router from a single node by overshooting it.
	huge := make([]string, serve.MaxBatchUsers+1)
	for k := range huge {
		huge[k] = fmt.Sprintf("user-%d", k)
	}
	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: huge}, nil); status != http.StatusBadRequest {
		t.Fatalf("oversized batch answered %d, want the single-node 400", status)
	}
}

// TestRouterBatchBytes pins the merged batch body two ways. It is a function
// of the request alone: the same two-shard batch sent 50 times gives 50
// identical bodies, shards in ascending ID whichever answered first. And it is
// byte for byte what decoding each shard's direct answer into the wire types
// and encoding the merge gives — the router splices the shards' element bytes
// instead, which must not show.
func TestRouterBatchBytes(t *testing.T) {
	rt, shards := clusterFixture(t, 2)
	ts := routerServer(t, rt)
	users := append([]string{"nobody-home"}, escapedUsers...)
	for k := 0; k < 20; k++ {
		users = append(users, fmt.Sprintf("user-%d", k))
	}
	users = append(users, "user-3", escapedUsers[0]) // duplicates

	status, first := postRaw(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: users})
	if status != http.StatusOK {
		t.Fatalf("batch answered %d: %s", status, first)
	}
	for i := 1; i < 50; i++ {
		if _, again := postRaw(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: users}); !bytes.Equal(again, first) {
			t.Fatalf("send %d of the same batch answered differently:\n%s\n%s", i, first, again)
		}
	}

	want := BatchResponse{}
	want.Results = make([]serve.RecommendResponse, len(users))
	for shard := range shards {
		var indices []int
		var owned []string
		for k, user := range users {
			if rt.Owner(user) == shard {
				indices, owned = append(indices, k), append(owned, user)
			}
		}
		if len(owned) == 0 {
			t.Fatalf("shard %d owns none of the batch; the fixture no longer spans both shards", shard)
		}
		var direct serve.BatchResponse
		if status := postJSON(t, shards[shard].ts.URL+"/recommend/batch", serve.BatchRequest{Users: owned}, &direct); status != http.StatusOK {
			t.Fatalf("shard %d answered %d", shard, status)
		}
		for k, idx := range indices {
			want.Results[idx] = direct.Results[k]
		}
		want.Shards = append(want.Shards, ShardBatchMeta{Shard: shard, Users: len(owned), Model: direct.Model, Version: direct.Version})
		want.Model = direct.Model
		want.Version += direct.Version
	}
	var oracle bytes.Buffer
	if err := json.NewEncoder(&oracle).Encode(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, oracle.Bytes()) {
		t.Fatalf("routed batch body differs from the re-encoded merge of the shards' answers:\n got %s\nwant %s", first, oracle.Bytes())
	}
}

// TestRouterIngestShardsAscending: the ingest answer lists its shards in
// ascending ID on every send, success or partial failure.
func TestRouterIngestShardsAscending(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	for _, s := range shards {
		s.srv.SetIngestSink(newRecordingSink())
	}
	ts := routerServer(t, rt)
	events := make([]serve.IngestEvent, 30)
	for k := range events {
		events[k] = serve.IngestEvent{User: fmt.Sprintf("user-%d", k), Item: "item-1", Value: 4}
	}
	ascending := func(body []byte, want int) {
		t.Helper()
		var got struct {
			Shards []ShardIngestMeta `json:"shards"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Shards) != want {
			t.Fatalf("answer lists %d shards, want %d: %s", len(got.Shards), want, body)
		}
		for i := 1; i < len(got.Shards); i++ {
			if got.Shards[i-1].Shard >= got.Shards[i].Shard {
				t.Fatalf("shards out of order: %s", body)
			}
		}
	}
	for i := 0; i < 20; i++ {
		status, body := postRaw(t, ts.URL+"/ingest", serve.IngestRequest{Events: events})
		if status != http.StatusOK {
			t.Fatalf("ingest answered %d: %s", status, body)
		}
		ascending(body, 3)
	}
	shards[1].ts.Close()
	for i := 0; i < 5; i++ {
		status, body := postRaw(t, ts.URL+"/ingest", serve.IngestRequest{Events: events})
		if status != http.StatusServiceUnavailable {
			t.Fatalf("ingest with a dead shard answered %d: %s", status, body)
		}
		ascending(body, 2)
	}
}

// TestRouterRefusesHostileBatchAnswers: every malformed sub-batch answer in
// hostileBatchAnswers is a typed 503, never a merged 200, and an answer that
// declares a length it does not send costs the router a bounded buffer, not
// the declared one.
func TestRouterRefusesHostileBatchAnswers(t *testing.T) {
	for _, h := range hostileBatchAnswers {
		t.Run(h.name, func(t *testing.T) {
			shard := hostileShard(http.StatusOK, []byte(h.body), h.declared)
			defer shard.Close()
			ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: strings.TrimPrefix(shard.URL, "http://")}})
			if err != nil {
				t.Fatal(err)
			}
			rt, err := NewRouter(RouterConfig{Ring: ring, Retries: 1, retryBackoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ts := routerServer(t, rt)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			status, body := postRaw(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: []string{"u", "v"}})
			runtime.ReadMemStats(&after)
			var answer map[string]interface{}
			if err := json.Unmarshal(body, &answer); err != nil {
				t.Fatalf("router answered %d with an undecodable body %q", status, body)
			}
			if status != http.StatusServiceUnavailable || answer["code"] != h.code {
				t.Fatalf("router answered %d %s, want a 503 coded %s", status, body, h.code)
			}
			// Two attempts at most maxDeclaredAlloc each, plus the request
			// plumbing of three servers: far under the 64 MiB one trusted
			// Content-Length would cost.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
				t.Fatalf("refusing the answer allocated %d bytes", grew)
			}
		})
	}
}

// recordingSink captures which events reached a shard's ingest endpoint.
type recordingSink struct {
	mu     chan struct{} // 1-token semaphore; avoids importing sync for one mutex
	events []serve.IngestEvent
}

func newRecordingSink() *recordingSink {
	s := &recordingSink{mu: make(chan struct{}, 1)}
	s.mu <- struct{}{}
	return s
}

// IngestEvents implements serve.IngestSink.
func (s *recordingSink) IngestEvents(ctx context.Context, events []serve.IngestEvent) (serve.IngestResult, error) {
	<-s.mu
	s.events = append(s.events, events...)
	n := len(s.events)
	s.mu <- struct{}{}
	return serve.IngestResult{Applied: len(events), Seq: uint64(n), Version: 1}, nil
}

// TestRouterIngestRoutedToOwners: every event lands at exactly its owner's
// sink, and the aggregate response accounts for all of them.
func TestRouterIngestRoutedToOwners(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	sinks := make([]*recordingSink, len(shards))
	for i, s := range shards {
		sinks[i] = newRecordingSink()
		s.srv.SetIngestSink(sinks[i])
	}
	ts := routerServer(t, rt)
	events := make([]serve.IngestEvent, 60)
	for k := range events {
		events[k] = serve.IngestEvent{User: fmt.Sprintf("user-%d", k%30), Item: fmt.Sprintf("item-%d", k%7), Value: 4}
	}
	var got IngestResponse
	if status := postJSON(t, ts.URL+"/ingest", serve.IngestRequest{Events: events}, &got); status != http.StatusOK {
		t.Fatalf("ingest answered %d", status)
	}
	if got.Applied != len(events) {
		t.Fatalf("applied %d of %d events", got.Applied, len(events))
	}
	total := 0
	for i, sink := range sinks {
		for _, ev := range sink.events {
			if owner := rt.Owner(ev.User); owner != i {
				t.Fatalf("event for %s landed on shard %d, owner is %d", ev.User, i, owner)
			}
		}
		total += len(sink.events)
	}
	if total != len(events) {
		t.Fatalf("sinks absorbed %d of %d events", total, len(events))
	}
	if status := postJSON(t, ts.URL+"/ingest", serve.IngestRequest{Events: []serve.IngestEvent{{User: "", Item: "x"}}}, nil); status != http.StatusBadRequest {
		t.Fatalf("missing-key event answered %d, want 400", status)
	}
	huge := make([]serve.IngestEvent, serve.MaxIngestEvents+1)
	for k := range huge {
		huge[k] = serve.IngestEvent{User: "u", Item: "i", Value: 1}
	}
	if status := postJSON(t, ts.URL+"/ingest", serve.IngestRequest{Events: huge}, nil); status != http.StatusBadRequest {
		t.Fatalf("oversized ingest batch answered %d, want the single-node 400", status)
	}
}

// TestRouterInfoAggregation: /info must sum versions and cache counters,
// carry every shard's row, and stay decodable as a single-node InfoResponse.
func TestRouterInfoAggregation(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	ts := routerServer(t, rt)
	// Bump shard 1 to version 3 via two engine swaps.
	for k := 0; k < 2; k++ {
		if err := shards[1].srv.Update(&echoEngine{name: "echo", items: 12}); err != nil {
			t.Fatal(err)
		}
	}
	var got InfoResponse
	if status := getJSON(t, ts.URL+"/info", &got); status != http.StatusOK {
		t.Fatalf("/info answered %d", status)
	}
	if got.Cluster.NumShards != 3 || got.Cluster.Healthy != 3 || got.Cluster.Epoch != 1 {
		t.Fatalf("cluster block %+v", got.Cluster)
	}
	if got.Version != 1+3+1 {
		t.Fatalf("aggregate version %d, want 5 (1+3+1)", got.Version)
	}
	for _, st := range got.Cluster.Shards {
		if !st.Healthy || st.Info == nil {
			t.Fatalf("shard row %+v not healthy", st)
		}
		if st.Info.Shard == nil || st.Info.Shard.ShardID != st.Shard {
			t.Fatalf("shard %d reports identity %+v", st.Shard, st.Info.Shard)
		}
		if st.EpochMismatch {
			t.Fatalf("spurious epoch mismatch on shard %d", st.Shard)
		}
	}
	// A plain single-node decoder must also understand the router's answer.
	var flat serve.InfoResponse
	if status := getJSON(t, ts.URL+"/info", &flat); status != http.StatusOK || flat.Model == "" || flat.Version != 5 {
		t.Fatalf("single-node decode of router /info: %+v", flat)
	}
}

// TestRouterDetectsEpochMismatch: a shard cut for another ring generation
// must be flagged, not silently served.
func TestRouterDetectsEpochMismatch(t *testing.T) {
	rt, shards := clusterFixture(t, 2)
	// Rebuild shard 1's server claiming a different epoch.
	d := dataset.NewBuilder("tiny", 2)
	d.Add("user-0", "item-0", 5)
	srv, err := serve.New(d.Build(), &echoEngine{name: "echo", items: 1}, 3,
		serve.WithShardIdentity(serve.ShardIdentity{ShardID: 1, NumShards: 2, RingEpoch: 9}))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv.Handler())
	t.Cleanup(ts1.Close)
	infos := rt.Ring().Shards()
	infos[1].Addr = strings.TrimPrefix(ts1.URL, "http://")
	ring, err := NewRing(1, 0, infos)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := NewRouter(RouterConfig{Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	ts := routerServer(t, rt2)
	var got InfoResponse
	getJSON(t, ts.URL+"/info", &got)
	if !got.Cluster.Shards[1].EpochMismatch {
		t.Fatalf("epoch mismatch not flagged: %+v", got.Cluster.Shards[1])
	}
	if got.Cluster.Shards[0].EpochMismatch {
		t.Fatal("healthy shard flagged as mismatched")
	}
	_ = shards
}

// TestRouterShardFailure: with one shard down, its users get typed 503s
// (code shard_unavailable), other users keep being served, health reports
// the cluster degraded, and batches touching the dead shard fail loudly
// rather than returning partial silence.
func TestRouterShardFailure(t *testing.T) {
	rt, shards := clusterFixture(t, 3)
	ts := routerServer(t, rt)
	dead := 1
	shards[dead].ts.Close()

	deadUser, liveUser := "", ""
	for u := 0; u < 40 && (deadUser == "" || liveUser == ""); u++ {
		user := fmt.Sprintf("user-%d", u)
		if rt.Owner(user) == dead {
			if deadUser == "" {
				deadUser = user
			}
		} else if liveUser == "" {
			liveUser = user
		}
	}

	var errBody map[string]interface{}
	if status := getJSON(t, ts.URL+"/recommend?user="+deadUser, &errBody); status != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard user answered %d, want 503", status)
	}
	if errBody["code"] != "shard_unavailable" || int(errBody["shard"].(float64)) != dead {
		t.Fatalf("503 body %v lacks typed shard detail", errBody)
	}
	if status := getJSON(t, ts.URL+"/recommend?user="+liveUser, nil); status != http.StatusOK {
		t.Fatalf("live-shard user answered %d during partial outage", status)
	}

	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: []string{deadUser, liveUser}}, &errBody); status != http.StatusServiceUnavailable {
		t.Fatalf("batch touching dead shard answered %d, want 503", status)
	}
	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: []string{liveUser}}, nil); status != http.StatusOK {
		t.Fatalf("live-only batch answered %d", status)
	}

	var health HealthResponse
	if status := getJSON(t, ts.URL+"/health", &health); status != http.StatusOK {
		t.Fatalf("/health answered %d", status)
	}
	if health.Status != "degraded" || health.Healthy != 2 || len(health.Down) != 1 || health.Down[0] != dead {
		t.Fatalf("health %+v does not report the dead shard", health)
	}
	var info InfoResponse
	getJSON(t, ts.URL+"/info", &info)
	if info.Cluster.Healthy != 2 || info.Cluster.Shards[dead].Healthy {
		t.Fatalf("info %+v does not report the dead shard", info.Cluster)
	}
}

// TestRouterRetriesTransientFailure: a shard that fails once then recovers
// must be retried within the budget, invisibly to the client.
func TestRouterRetriesTransientFailure(t *testing.T) {
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(serve.RecommendResponse{User: "u", Items: []string{"item-1"}, Version: 1})
	}))
	t.Cleanup(flaky.Close)
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: strings.TrimPrefix(flaky.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Retries: 2, retryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := routerServer(t, rt)
	var got serve.RecommendResponse
	if status := getJSON(t, ts.URL+"/recommend?user=u", &got); status != http.StatusOK {
		t.Fatalf("flaky shard not retried: status %d", status)
	}
	if calls.Load() != 2 {
		t.Fatalf("shard called %d times, want 2 (one failure, one retry)", calls.Load())
	}
}

// TestRouterHostileShardResponse: garbage where JSON is expected must fail
// with the typed shard_response 503 — never a panic, never silent success.
func TestRouterHostileShardResponse(t *testing.T) {
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("\x00\xff not json {{{"))
	}))
	t.Cleanup(hostile.Close)
	ring, err := NewRing(1, 0, []ShardInfo{{ID: 0, Addr: strings.TrimPrefix(hostile.URL, "http://")}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring, Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := routerServer(t, rt)
	var errBody map[string]interface{}
	if status := postJSON(t, ts.URL+"/recommend/batch", serve.BatchRequest{Users: []string{"u"}}, &errBody); status != http.StatusServiceUnavailable {
		t.Fatalf("hostile batch answer produced status %d, want 503", status)
	}
	if errBody["code"] != "shard_response" {
		t.Fatalf("hostile answer coded %v, want shard_response", errBody["code"])
	}
	if status := postJSON(t, ts.URL+"/ingest", serve.IngestRequest{Events: []serve.IngestEvent{{User: "u", Item: "i", Value: 1}}}, &errBody); status != http.StatusServiceUnavailable {
		t.Fatalf("hostile ingest answer produced status %d, want 503", status)
	}
}

// TestNewRouterValidation pins construction errors.
func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("nil ring: %v", err)
	}
	ring, _ := NewUniformRing(1, 2) // empty addresses
	if _, err := NewRouter(RouterConfig{Ring: ring}); !errors.Is(err, ErrBadRing) {
		t.Fatalf("address-less ring: %v", err)
	}
}

// TestReadFollowsRepointedPrimaryMidRetry pins the promotion-race fix: a
// read that burns its retry budget against a dying primary must re-resolve
// the shard against the current ring before giving up. A promotion that
// republishes the ring mid-retry re-points the primary, and with a single
// replica the new ring's replica slot holds exactly the dead ex-primary —
// so without the re-resolution the read has no failover target at all and
// a client-visible 503 leaks out of an otherwise hands-off failover.
func TestReadFollowsRepointedPrimaryMidRetry(t *testing.T) {
	newPrimary := newHealthNode(t, 0, "promoted")

	var rt *Router
	var oldAddr string
	var swapped atomic.Bool
	oldMux := http.NewServeMux()
	oldMux.HandleFunc("/recommend", func(w http.ResponseWriter, _ *http.Request) {
		// The promotion lands while the router is mid-retry against this
		// dying node: the first failed attempt triggers the ring republish,
		// then every attempt keeps failing.
		if swapped.CompareAndSwap(false, true) {
			ringB, err := NewRing(2, 0, []ShardInfo{
				{ID: 0, Addr: newPrimary.addr(), Replicas: []string{oldAddr}},
			})
			if err != nil {
				t.Errorf("building post-promotion ring: %v", err)
			} else if err := rt.UpdateRing(ringB); err != nil {
				t.Errorf("republishing ring mid-retry: %v", err)
			}
		}
		http.Error(w, "dying", http.StatusInternalServerError)
	})
	oldTS := httptest.NewServer(oldMux)
	defer oldTS.Close()
	oldAddr = strings.TrimPrefix(oldTS.URL, "http://")

	ringA, err := NewRing(1, 0, []ShardInfo{
		{ID: 0, Addr: oldAddr, Replicas: []string{newPrimary.addr()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err = NewRouter(RouterConfig{Ring: ringA, Retries: 1, retryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/recommend?user=u1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("read across a mid-retry promotion answered %d, want 200 from the re-pointed primary", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["served_by"] != "promoted" {
		t.Fatalf("read served by %q, want the promoted primary", body["served_by"])
	}
	if !swapped.Load() {
		t.Fatal("the dying primary was never consulted; the race under test did not occur")
	}
}
