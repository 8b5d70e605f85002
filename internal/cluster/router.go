package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/admit"
	"ganc/internal/obs"
	"ganc/internal/serve"
)

// ErrShardUnavailable marks a shard that could not be reached (or kept
// answering 5xx) within the router's bounded retry budget. HTTP handlers
// translate it into a typed 503 response.
var ErrShardUnavailable = errors.New("cluster: shard unavailable")

// ErrShardResponse marks a shard answer the router could not interpret — a
// hostile or corrupt body where a JSON document was expected. It is a
// distinct sentinel from ErrShardUnavailable because retrying does not help:
// the shard is up but speaking the wrong protocol.
var ErrShardResponse = errors.New("cluster: malformed shard response")

// ShardError carries the shard context of a routing failure. It wraps
// ErrShardUnavailable or ErrShardResponse for errors.Is matching.
type ShardError struct {
	// Shard and Addr identify the failing shard.
	Shard int
	Addr  string
	// Attempts is how many times the router tried before giving up.
	Attempts int
	// Err is the underlying sentinel-wrapped cause.
	Err error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("cluster: shard %d (%s) failed after %d attempts: %v", e.Shard, e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the sentinel cause to errors.Is.
func (e *ShardError) Unwrap() error { return e.Err }

// RouterConfig assembles a Router.
type RouterConfig struct {
	// Ring supplies shard ownership and addresses. Required; every shard
	// must carry a non-empty address.
	Ring *Ring
	// Dial opens the connections of the router's hop, which every call the
	// router makes goes through — shard calls, detector and promotion probes,
	// ring pushes, a reshard's tail pulls and chunk ships (default: a
	// net.Dialer).
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Metrics, when set, registers the router's per-shard fan-out, retry,
	// failure and epoch-mismatch series plus per-route HTTP instrumentation
	// on the registry, and mounts GET /metrics on the handler.
	Metrics *obs.Registry
	// RequestLog, when set, emits one structured JSON line per routed
	// request.
	RequestLog *obs.RequestLogger
	// Admission applies rate limiting and a concurrency cap at the router
	// before any shard is contacted (the zero value admits everything).
	Admission admit.Config
	// DetectInterval is the /health sampling period of the failure detector
	// the router runs whenever its ring declares a replica (default 250ms).
	// Failed reads pick their failover replica from the detector's cached
	// view, and a suspected-down primary — suspectAfter consecutive missed
	// probes — is skipped without burning the retry budget.
	DetectInterval time.Duration
	// AutoFailover makes the detector's suspicion of a shard's primary — the
	// first in each outage episode — run Promote for the shard, with no
	// operator call. A promotion in flight may run until Close returns.
	AutoFailover bool

	// Only the package's tests set these. retryBackoff is the pause between
	// attempts (default 25ms); attempts is how many a shard call gets
	// (default shardRetries+1); suspectAfter is the detector's miss threshold
	// (default suspectAfter); probeTimeout bounds one shard's /health or
	// /info probe during aggregation (default 2s).
	retryBackoff time.Duration
	attempts     int
	suspectAfter int
	probeTimeout time.Duration
}

// A failed shard call is retried shardRetries times — shardRetries+1
// attempts — before the typed 503. A replica whose reported lag exceeds
// maxReplicaLag committed events never serves a failover read: one kept in
// sync by the shipper sits at 0–1 events of lag, so the bound only bites
// while a replica catches up from the WAL, when serving its answers would
// silently rewind a user's visible history.
const (
	shardRetries  = 2
	maxReplicaLag = 1024
)

// Router is the scatter-gather front of a shard set: it proxies single-user
// reads to the owning shard, fans batch reads and ingest batches out across
// owning shards, merges the answers, and aggregates health and info. It is
// stateless apart from its configuration and its liveness cache, so any
// number of router replicas can front the same shard set. Close a router
// when it retires: it owns its hop's pooled connections and, over a
// replicated ring, a sampling goroutine.
type Router struct {
	ring     atomic.Pointer[Ring]
	hop      *hop
	attempts int
	backoff  time.Duration
	probe    time.Duration

	// detector is the router's liveness source: built and started by
	// NewRouter when the ring declares a replica, nil otherwise (with no
	// replica there is nothing to fail over to).
	detector *Detector

	metrics   *obs.Registry
	httpObs   *obs.HTTPMetrics
	admission *admit.Controller
	rm        *routerMetrics

	// reshard holds the in-flight ring transition (nil outside a reshard);
	// doubleDispatches counts reads served from a user's old owner while the
	// user was still migrating, across the router's lifetime.
	reshard          atomic.Pointer[reshardState]
	doubleDispatches atomic.Int64

	// topo serializes ring changes: a promotion, and a reshard's begin and
	// its commit (control.go). Under it, pushed is the highest ring epoch
	// the router has handed out — pushed to a node, shipped migration chunks
	// under, or heard a node hold — which a ring change the router starts
	// must exceed (fresh).
	topo   sync.Mutex
	pushed uint64
}

// reshardState is the router's view of an in-flight ring transition: the
// next ring (epoch E+1) plus the set of users whose ownership changes, each
// with a flip bit the reshard coordinator raises once the user's history has
// landed at its new owner.
type reshardState struct {
	next  *Ring
	users map[string]*migratingUser
	began time.Time
}

// migratingUser tracks one moving user through the cutover: reads stay on
// the old owner (From) until flipped, writes go to the next ring's owner
// from the moment the transition begins.
type migratingUser struct {
	from    int
	flipped atomic.Bool
}

// NewRouter validates the configuration and builds the router. Over a ring
// that declares a replica it also starts the failure detector, whose first
// sample completes before NewRouter returns.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("%w: router needs a ring", ErrBadRing)
	}
	for _, s := range cfg.Ring.Shards() {
		if s.Addr == "" {
			return nil, fmt.Errorf("%w: shard %d has no address", ErrBadRing, s.ID)
		}
	}
	attempts := cfg.attempts
	if attempts <= 0 {
		attempts = shardRetries + 1
	}
	backoff := cfg.retryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	probe := cfg.probeTimeout
	if probe <= 0 {
		probe = 2 * time.Second
	}
	rt := &Router{
		hop:       newHop(cfg.Dial),
		attempts:  attempts,
		backoff:   backoff,
		probe:     probe,
		metrics:   cfg.Metrics,
		admission: admit.New(cfg.Admission),
	}
	rt.ring.Store(cfg.Ring)
	if cfg.Metrics != nil || cfg.RequestLog != nil {
		reg := cfg.Metrics
		if reg == nil {
			reg = obs.NewRegistry()
		}
		rt.httpObs = obs.NewHTTPMetrics(reg, cfg.RequestLog, rt.requestMeta, nil)
	}
	if cfg.Metrics != nil {
		rt.rm = newRouterMetrics(cfg.Metrics, cfg.Ring.NumShards())
		if rt.admission != nil {
			rt.admission.Register(cfg.Metrics)
		}
	}
	for _, s := range cfg.Ring.Shards() {
		if len(s.Replicas) > 0 {
			dcfg := DetectorConfig{
				Ring:         rt.Ring,
				hop:          rt.hop,
				Interval:     cfg.DetectInterval,
				Metrics:      cfg.Metrics,
				suspectAfter: cfg.suspectAfter,
			}
			if cfg.AutoFailover {
				dcfg.OnSuspectPrimary = rt.promoteSuspect
			}
			rt.detector = newDetector(dcfg)
			rt.detector.start()
			break
		}
	}
	return rt, nil
}

// Close stops the router's failure detector, waits for any suspicion
// callback it spawned and drops the hop's idle connections. The routes keep
// answering (without read failover, each call on a fresh connection); safe
// to call more than once.
func (rt *Router) Close() {
	if rt.detector != nil {
		rt.detector.Close()
	}
	rt.hop.Close()
}

// Ring returns the ring the router currently routes by.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// Owner returns the index of the shard owning the user key (the ring's
// assignment; exposed so drivers and tests can partition work the same way
// the router does).
func (rt *Router) Owner(userKey string) int { return rt.Ring().Owner(userKey) }

// beginReshard puts the router into the double-ring transition state: writes
// are routed by the next ring immediately (freezing moving users' histories
// at their old owners), while reads for the moving users stay on their old
// owners until flipUser raises their flip bit. Reshard (migrate.go), which
// sequences these four steps, is the one path through a shard-count change.
// Only one reshard may be in flight at a time. The ring the transition runs
// under is returned: next, renumbered above every epoch the router has handed
// out when an earlier attempt or promotion already used its epoch. The caller
// holds rt.topo.
func (rt *Router) beginReshard(next *Ring, moving map[string]UserMove) (*Ring, error) {
	if cur := rt.Ring().Epoch(); next.Epoch() <= cur {
		return nil, fmt.Errorf("%w: next ring epoch %d is not newer than the current epoch %d", ErrBadRing, next.Epoch(), cur)
	}
	next, err := rt.fresh(next)
	if err != nil {
		return nil, err
	}
	rs := &reshardState{next: next, users: make(map[string]*migratingUser, len(moving)), began: time.Now()}
	for user, mv := range moving {
		rs.users[user] = &migratingUser{from: mv.From}
	}
	// Rows first: writes route by the next ring as soon as rs is in.
	rt.rm.grow(next.NumShards())
	if !rt.reshard.CompareAndSwap(nil, rs) {
		return nil, fmt.Errorf("%w: a reshard is already in flight", ErrBadRing)
	}
	// Migration chunks carry the epoch from here on, and a destination adopts
	// it: a retry after an abort must run under a newer one.
	rt.pushed = next.Epoch()
	return next, nil
}

// flipUser cuts one moving user over to its new owner, once the user's
// history has fully landed there. Reads for the user route by the next ring
// from this point on. Unknown users are a no-op.
func (rt *Router) flipUser(user string) {
	rs := rt.reshard.Load()
	if rs == nil {
		return
	}
	if mu, ok := rs.users[user]; ok && !mu.flipped.Swap(true) {
		rt.rm.userFlipped()
	}
}

// completeReshard publishes the ring the transition was begun with and
// leaves the transition state.
func (rt *Router) completeReshard() error {
	rs := rt.reshard.Load()
	if rs == nil {
		return fmt.Errorf("%w: no reshard in flight", ErrBadRing)
	}
	rt.rm.cutover(time.Since(rs.began).Seconds())
	rt.ring.Store(rs.next)
	rt.reshard.Store(nil)
	return nil
}

// abortReshard abandons an in-flight transition and reverts all routing to
// the current ring (writes that already landed at epoch-E+1-only shards are
// not replayed back; see DESIGN.md §14 for the failure semantics).
func (rt *Router) abortReshard() { rt.reshard.Store(nil) }

// readTarget resolves the shard that serves a user's reads: outside a
// reshard, the current ring's owner; during one, the old owner until the
// user's flip bit rises, the next ring's owner after.
func (rt *Router) readTarget(userKey string) int {
	rs := rt.reshard.Load()
	if rs == nil {
		return rt.Ring().Owner(userKey)
	}
	if mu, ok := rs.users[userKey]; ok && !mu.flipped.Load() {
		rt.doubleDispatches.Add(1)
		rt.rm.doubleDispatch()
		return mu.from
	}
	return rs.next.Owner(userKey)
}

// writeTarget resolves the shard that absorbs a user's writes: the next
// ring's owner from the moment a reshard begins (so moving users' histories
// freeze at their old owners), the current ring's owner otherwise.
func (rt *Router) writeTarget(userKey string) int {
	if rs := rt.reshard.Load(); rs != nil {
		return rs.next.Owner(userKey)
	}
	return rt.Ring().Owner(userKey)
}

// shardInfo resolves a shard index to its ring entry, preferring the next
// ring during a transition (it knows shards being added) and falling back to
// the current ring (which still knows shards being removed).
func (rt *Router) shardInfo(shard int) (ShardInfo, error) {
	if rs := rt.reshard.Load(); rs != nil && shard >= 0 && shard < rs.next.NumShards() {
		return rs.next.Shard(shard), nil
	}
	ring := rt.Ring()
	if shard < 0 || shard >= ring.NumShards() {
		return ShardInfo{}, fmt.Errorf("%w: shard %d is not in the ring", ErrBadRing, shard)
	}
	return ring.Shard(shard), nil
}

// callShard performs one call against the shard's primary; write marks a
// call that changes the shard (see callAddr).
func (rt *Router) callShard(ctx context.Context, shard int, method, pathAndQuery string, body []byte, write bool) (int, []byte, error) {
	info, err := rt.shardInfo(shard)
	if err != nil {
		return 0, nil, &ShardError{Shard: shard, Attempts: 0, Err: fmt.Errorf("%w: %v", ErrShardUnavailable, err)}
	}
	return rt.callAddr(ctx, shard, info.Addr, method, pathAndQuery, body, write)
}

// callAddr performs one shard call against an explicit address with the
// bounded retry budget: a 5xx answer is retried with backoff, and so is a
// transport error — for a write only when the dial failed, because a write
// the shard applied before its answer was lost would be applied twice
// (serve's /ingest answers 5xx only before its commit point). Any other HTTP
// answer is returned as-is (4xx is the shard's verdict, not a routing
// failure).
func (rt *Router) callAddr(ctx context.Context, shard int, addr, method, pathAndQuery string, body []byte, write bool) (int, []byte, error) {
	rt.rm.call(shard)
	var lastErr error
	for attempt := 0; attempt < rt.attempts; attempt++ {
		if attempt > 0 {
			rt.rm.retry(shard)
			select {
			case <-ctx.Done():
				rt.rm.failure(shard)
				return 0, nil, &ShardError{Shard: shard, Addr: addr, Attempts: attempt,
					Err: fmt.Errorf("%w: %v", ErrShardUnavailable, ctx.Err())}
			case <-time.After(rt.backoff):
			}
		}
		status, payload, err := exchange(ctx, rt.hop, method, addr, pathAndQuery, body, maxShardResponse)
		switch {
		case err != nil && write && !dialFailed(err):
			rt.rm.failure(shard)
			return 0, nil, &ShardError{Shard: shard, Addr: addr, Attempts: attempt + 1,
				Err: fmt.Errorf("%w: %v (not retried: the shard may have applied the write)", ErrShardUnavailable, err)}
		case err != nil:
			lastErr = err
		case status >= 500:
			lastErr = fmt.Errorf("shard answered %d", status)
		default:
			return status, payload, nil
		}
	}
	rt.rm.failure(shard)
	return 0, nil, &ShardError{Shard: shard, Addr: addr, Attempts: rt.attempts,
		Err: fmt.Errorf("%w: %v", ErrShardUnavailable, lastErr)}
}

// callShardRead is callShard with read failover: when the primary exhausts
// its retry budget, the router first re-resolves the shard against the
// current ring — a promotion may have re-pointed the primary mid-retry —
// and otherwise serves the read from the freshest replica within the
// staleness bound. Writes never take this path — a replica applies batches
// only through /replicate, so failing a write over would fork the shard's
// history.
func (rt *Router) callShardRead(ctx context.Context, shard int, method, pathAndQuery string, body []byte) (int, []byte, error) {
	var status int
	var payload []byte
	var err error
	// A suspected-down primary is skipped outright: no call, no retry budget,
	// straight to the cached failover choice. While the primary is merely
	// failing, not yet suspected, it is tried first.
	if !rt.primarySuspected(shard) {
		status, payload, err = rt.callShard(ctx, shard, method, pathAndQuery, body, false)
		if err == nil {
			return status, payload, nil
		}
	} else {
		info, _ := rt.shardInfo(shard)
		err = &ShardError{Shard: shard, Addr: info.Addr,
			Err: fmt.Errorf("%w: primary suspected down by the failure detector", ErrShardUnavailable)}
	}
	info, infoErr := rt.shardInfo(shard)
	if infoErr != nil {
		return status, payload, err
	}
	// A ring republish (promotion, reshard cutover) may have re-pointed the
	// shard's primary while the failed attempts were burning their budget
	// against the old address. One call against the current primary covers
	// that window — and it is the only way out when the shard has a single
	// replica, because the post-promotion ring's replica slot holds exactly
	// the dead ex-primary.
	var se *ShardError
	if errors.As(err, &se) && se.Addr != "" && se.Addr != info.Addr {
		if st, repointed, err2 := rt.callAddr(ctx, shard, info.Addr, method, pathAndQuery, body, false); err2 == nil {
			return st, repointed, nil
		}
	}
	addr, ok := rt.failoverTarget(info.Replicas)
	if !ok {
		return status, payload, err
	}
	rt.rm.failover(shard)
	st, body2, err2 := rt.callAddr(ctx, shard, addr, method, pathAndQuery, body, false)
	if err2 != nil {
		// Report the primary's failure: it is the root cause, and the
		// replica's may just be the same outage.
		return status, payload, err
	}
	return st, body2, nil
}

// primarySuspected consults the detector's cached view for the shard's
// primary. Always false without a sample: suspicion requires evidence.
func (rt *Router) primarySuspected(shard int) bool {
	if rt.detector == nil {
		return false
	}
	info, err := rt.shardInfo(shard)
	if err != nil {
		return false
	}
	row, ok := rt.detector.Node(info.Addr)
	return ok && row.Suspected
}

// failoverTarget picks the replica a failed read falls over to, from the
// detector's cached view only — the request path never probes.
func (rt *Router) failoverTarget(replicas []string) (string, bool) {
	if rt.detector == nil {
		return "", false
	}
	return rt.detector.FreshestReplica(replicas, maxReplicaLag)
}

// Handler returns the router's HTTP surface. The routes mirror the shard
// servers', so a client cannot tell a router from a single node apart from
// the extra cluster detail in /info — and the one admin route, POST
// /admin/reshard (control.go).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", rt.handleHealth)
	mux.HandleFunc("/info", rt.handleInfo)
	mux.HandleFunc("/recommend", rt.handleRecommend)
	mux.HandleFunc("/recommend/batch", rt.handleBatch)
	mux.HandleFunc("/ingest", rt.handleIngest)
	mux.HandleFunc("/users", rt.handleUsers)
	mux.HandleFunc("/admin/reshard", rt.handleReshard)
	if rt.metrics != nil {
		mux.Handle("/metrics", rt.metrics.Handler())
	}
	// Same middleware order as a shard server: instrumentation outermost so
	// shed requests are counted, admission next so /health and /metrics stay
	// reachable under overload.
	var h http.Handler = mux
	h = rt.admission.Middleware(h)
	if rt.httpObs != nil {
		h = rt.httpObs.Wrap(h)
	}
	return h
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeShardFailure answers the typed 503 for a routing failure.
func writeShardFailure(w http.ResponseWriter, err error) {
	resp := map[string]interface{}{"error": err.Error(), "code": "shard_unavailable"}
	var se *ShardError
	if errors.As(err, &se) {
		resp["shard"] = se.Shard
		if errors.Is(err, ErrShardResponse) {
			resp["code"] = "shard_response"
		}
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

// passthrough relays a shard's verbatim answer (status and body) to the
// client — the single-user proxy path.
func passthrough(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (rt *Router) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	userKey := r.URL.Query().Get("user")
	if userKey == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?user="})
		return
	}
	shard := rt.readTarget(userKey)
	status, body, err := rt.callShardRead(r.Context(), shard, http.MethodGet, "/recommend?"+r.URL.RawQuery, nil)
	if err != nil {
		writeShardFailure(w, err)
		return
	}
	passthrough(w, status, body)
}

// ShardBatchMeta records one shard's contribution to a scatter-gather
// answer, including the exact engine version that served it — the
// per-shard accounting the race regression tests pin.
type ShardBatchMeta struct {
	// Shard is the shard ID.
	Shard int `json:"shard"`
	// Users is how many of the request's users the shard owned.
	Users int `json:"users"`
	// Model and Version echo the shard's self-report for this call.
	Model   string `json:"model"`
	Version int    `json:"version"`
}

// BatchResponse is the router's POST /recommend/batch payload: the standard
// serving shape (results in request order) plus the per-shard scatter
// record. Version is the sum of the participating shards' versions, so a
// version delta across two calls bounds how many shard republishes happened
// in between.
type BatchResponse struct {
	serve.BatchResponse
	// Shards records the scatter: which shards participated, with how many
	// users, at which engine version.
	Shards []ShardBatchMeta `json:"shards"`
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	// The router enforces the single node's body checks itself: fanning an
	// oversized batch out would either multiply the limit by the shard count
	// or bounce a client mistake back as a misleading shard-side 503.
	req, ok := serve.ReadBatchRequest(w, r)
	if !ok {
		return
	}
	// Partition the users by owning shard (the read target, so mid-reshard
	// batches respect per-user cutover state), remembering each user's
	// position so the merged results preserve request order.
	perShard := make(map[int][]int)
	for k, user := range req.Users {
		shard := rt.readTarget(user)
		perShard[shard] = append(perShard[shard], k)
	}
	shards := slices.Sorted(maps.Keys(perShard))

	// One sub-batch per owning shard, concurrently; the answers land in shard
	// order, so the merged body does not depend on which shard answered first.
	answers := make([]serve.BatchParts, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i], errs[i] = rt.subBatch(r.Context(), shard, req.Users, perShard[shard])
		}()
	}
	wg.Wait()

	// The merged answer is serve's envelope around the shards' own element
	// bytes, placed by request index, then the shards in ascending ID:
	// BatchResponse's JSON, appended into one buffer sized up front — the
	// elements, and 128 bytes besides for each shard's row and the envelope
	// (its digits and keys, not its models).
	merged := serve.BatchParts{Model: answers[len(answers)-1].Model, Results: make([][]byte, len(req.Users))}
	size := 128
	for i, shard := range shards {
		// A partial batch would silently drop users, so any shard failure
		// fails the whole request loudly.
		if errs[i] != nil {
			writeShardFailure(w, errs[i])
			return
		}
		for k, idx := range perShard[shard] {
			merged.Results[idx] = answers[i].Results[k]
			size += len(merged.Results[idx]) + 1
		}
		size += 128 + 2*len(answers[i].Model)
		merged.Version += answers[i].Version
	}
	body := serve.AppendBatch(make([]byte, 0, size), merged)
	body = append(body, `,"shards":[`...)
	for i, shard := range shards {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, `{"shard":`...)
		body = strconv.AppendInt(body, int64(shard), 10)
		body = append(body, `,"users":`...)
		body = strconv.AppendInt(body, int64(len(perShard[shard])), 10)
		body = append(body, `,"model":`...)
		body = append(body, answers[i].Model...)
		body = append(body, `,"version":`...)
		body = strconv.AppendInt(body, int64(answers[i].Version), 10)
		body = append(body, '}')
	}
	body = append(body, "]}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// subBatch asks one shard for its share of a batch — the users at indices —
// and splits its answer with serve.SplitBatch, which checks the envelope:
// valid JSON, one element per user, each element a JSON object. What is
// inside an element is the shard's to say and is relayed as it came, as
// passthrough relays a single-user answer.
func (rt *Router) subBatch(ctx context.Context, shard int, all []string, indices []int) (serve.BatchParts, error) {
	users := make([]string, len(indices))
	for k, idx := range indices {
		users[k] = all[idx]
	}
	payload, _ := json.Marshal(serve.BatchRequest{Users: users})
	info, _ := rt.shardInfo(shard)
	malformed := func(err error) (serve.BatchParts, error) {
		return serve.BatchParts{}, &ShardError{Shard: shard, Addr: info.Addr, Attempts: 1, Err: err}
	}
	status, body, err := rt.callShardRead(ctx, shard, http.MethodPost, "/recommend/batch", payload)
	if err != nil {
		return serve.BatchParts{}, err
	}
	if status != http.StatusOK {
		return malformed(fmt.Errorf("%w: sub-batch rejected with status %d: %s", ErrShardResponse, status, truncate(body)))
	}
	ans, err := serve.SplitBatch(body, len(users))
	if err != nil {
		return malformed(fmt.Errorf("%w: sub-batch answer: %v", ErrShardResponse, err))
	}
	return ans, nil
}

// ShardIngestMeta records one shard's slice of a routed ingest batch.
type ShardIngestMeta struct {
	// Shard is the shard ID.
	Shard int `json:"shard"`
	// Result is the shard's own ingest summary (events applied, sequence
	// cursor, serving version, post-commit warning).
	Result serve.IngestResult `json:"result"`
}

// IngestResponse is the router's POST /ingest payload: the total applied
// count plus the per-shard routing record. There is no cluster-wide
// sequence number — each shard owns its cursor — so Seq is omitted.
type IngestResponse struct {
	// Applied is the event count absorbed across all shards.
	Applied int `json:"applied"`
	// Shards records which owner received which slice.
	Shards []ShardIngestMeta `json:"shards"`
}

func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	// The single node's body checks, for the reason handleBatch gives.
	req, ok := serve.ReadIngestRequest(w, r)
	if !ok {
		return
	}
	// Events go to the shard owning their user: the owner's write-ahead log
	// is the durability point for that user's interactions. Mid-reshard the
	// write target is the next ring's owner (the old owner is draining, its
	// log frozen for moving users). Writes are never failed over to replicas
	// (see callShardRead).
	perShard := make(map[int][]serve.IngestEvent)
	for _, ev := range req.Events {
		shard := rt.writeTarget(ev.User)
		perShard[shard] = append(perShard[shard], ev)
	}

	// One slice per owning shard, concurrently; the answers land in shard
	// order (see handleBatch).
	shards := slices.Sorted(maps.Keys(perShard))
	results := make([]serve.IngestResult, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, shard := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _ := json.Marshal(serve.IngestRequest{Events: perShard[shard]})
			info, _ := rt.shardInfo(shard)
			status, body, err := rt.callShard(r.Context(), shard, http.MethodPost, "/ingest", payload, true)
			switch {
			case err != nil:
				errs[i] = err
			case status != http.StatusOK:
				errs[i] = &ShardError{Shard: shard, Addr: info.Addr, Attempts: 1,
					Err: fmt.Errorf("%w: ingest slice rejected with status %d: %s", ErrShardResponse, status, truncate(body))}
			default:
				if err := json.Unmarshal(body, &results[i]); err != nil {
					errs[i] = &ShardError{Shard: shard, Addr: info.Addr, Attempts: 1,
						Err: fmt.Errorf("%w: decoding ingest answer: %v", ErrShardResponse, err)}
				}
			}
		}()
	}
	wg.Wait()

	out := IngestResponse{}
	var failure error
	for i, shard := range shards {
		if errs[i] != nil {
			if failure == nil {
				failure = errs[i]
			}
			continue
		}
		out.Applied += results[i].Applied
		out.Shards = append(out.Shards, ShardIngestMeta{Shard: shard, Result: results[i]})
	}
	if failure != nil {
		// Slices that did land are durably applied at their shards; the 503
		// reports what succeeded so the caller does not blindly retry the
		// whole batch (re-sending an applied slice would double-count it).
		// The code distinguishes retryable outages (shard_unavailable) from
		// protocol mismatches (shard_response), like every other route.
		resp := map[string]interface{}{
			"error":   failure.Error(),
			"code":    "shard_unavailable",
			"applied": out.Applied,
			"shards":  out.Shards,
		}
		if errors.Is(failure, ErrShardResponse) {
			resp["code"] = "shard_response"
		}
		var se *ShardError
		if errors.As(failure, &se) {
			resp["shard"] = se.Shard
		}
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// ShardStatus is one shard's row in the aggregated /info and /health
// answers.
type ShardStatus struct {
	// Shard and Addr identify the shard.
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// Healthy reports whether the shard answered its probe.
	Healthy bool `json:"healthy"`
	// Error carries the probe failure when Healthy is false.
	Error string `json:"error,omitempty"`
	// Info is the shard's own /info answer (nil when unreachable).
	Info *serve.InfoResponse `json:"info,omitempty"`
	// Health is the shard's own /health answer when the probe path was
	// /health (nil when unreachable or when probing /info).
	Health *serve.HealthResponse `json:"health,omitempty"`
	// EpochMismatch flags a shard whose snapshot was cut for a different
	// ring epoch or shard count than the router routes by — a deployment
	// error that silently misroutes users if ignored.
	EpochMismatch bool `json:"epoch_mismatch,omitempty"`
}

// ClusterInfo is the cluster-level block of the router's /info answer.
type ClusterInfo struct {
	// Epoch and NumShards describe the router's ring.
	Epoch     uint64 `json:"epoch"`
	NumShards int    `json:"num_shards"`
	// Healthy counts the shards that answered the probe.
	Healthy int `json:"healthy"`
	// Shards holds the per-shard detail.
	Shards []ShardStatus `json:"shards"`
}

// InfoResponse is the router's GET /info payload. The embedded standard
// fields aggregate across reachable shards (version is the SUM of shard
// versions, so deltas count cluster-wide republishes; cache counters are
// summed; universe sizes take the widest shard view), which keeps the
// router drop-in compatible with single-node /info consumers like the load
// driver.
type InfoResponse struct {
	serve.InfoResponse
	// Cluster carries the per-shard breakdown.
	Cluster ClusterInfo `json:"cluster"`
}

// probeShards fans one GET across all shards with the probe timeout.
func (rt *Router) probeShards(ctx context.Context, path string) []ShardStatus {
	ring := rt.Ring()
	statuses := make([]ShardStatus, ring.NumShards())
	ctx, cancel := context.WithTimeout(ctx, rt.probe)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < ring.NumShards(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info := ring.Shard(i)
			st := ShardStatus{Shard: info.ID, Addr: info.Addr}
			status, body, err := rt.callShard(ctx, i, http.MethodGet, path, nil, false)
			switch {
			case err != nil:
				st.Error = err.Error()
			case status != http.StatusOK:
				st.Error = fmt.Sprintf("shard answered %d", status)
			default:
				var parsed serve.InfoResponse
				if path == "/info" {
					if err := json.Unmarshal(body, &parsed); err != nil {
						st.Error = fmt.Errorf("%w: decoding /info: %v", ErrShardResponse, err).Error()
						break
					}
					st.Info = &parsed
					if id := parsed.Shard; id != nil &&
						(id.RingEpoch != ring.Epoch() || id.NumShards != ring.NumShards() || id.ShardID != info.ID) {
						st.EpochMismatch = true
					}
					rt.rm.epochMismatch(i, st.EpochMismatch)
				}
				if path == "/health" {
					// Best-effort: a shard running an older build answers a
					// bare {"status":"ok"}, which still decodes.
					var health serve.HealthResponse
					if err := json.Unmarshal(body, &health); err == nil {
						st.Health = &health
					}
				}
				st.Healthy = true
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	return statuses
}

func (rt *Router) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	ring := rt.Ring()
	statuses := rt.probeShards(r.Context(), "/info")
	out := InfoResponse{Cluster: ClusterInfo{
		Epoch:     ring.Epoch(),
		NumShards: ring.NumShards(),
		Shards:    statuses,
	}}
	for _, st := range statuses {
		if !st.Healthy {
			continue
		}
		out.Cluster.Healthy++
		info := st.Info
		if info == nil {
			continue
		}
		if out.Model == "" {
			out.Model = info.Model
			out.Dataset = info.Dataset
			out.TopN = info.TopN
		}
		out.Version += info.Version
		if info.NumUsers > out.NumUsers {
			out.NumUsers = info.NumUsers
		}
		if info.NumItems > out.NumItems {
			out.NumItems = info.NumItems
		}
		out.Cache.Hits += info.Cache.Hits
		out.Cache.Misses += info.Cache.Misses
		out.Cache.Size += info.Cache.Size
		out.Cache.Capacity += info.Cache.Capacity
	}
	writeJSON(w, http.StatusOK, out)
}

// HealthResponse is the router's GET /health payload: "ok" when every shard
// answered its probe, "degraded" otherwise. The router itself answers 200
// either way — it is alive and still routing to the healthy shards.
type HealthResponse struct {
	// Status is "ok" or "degraded".
	Status string `json:"status"`
	// Healthy and Shards count probe outcomes.
	Healthy int `json:"healthy"`
	Shards  int `json:"shards"`
	// Down lists the unreachable shard IDs (absent when all are up).
	Down []int `json:"down,omitempty"`
	// Admission lists per-shard shed counts and limiter saturation, one row
	// per reachable shard that reports admission state in its own /health.
	Admission []ShardAdmission `json:"admission,omitempty"`
	// RouterAdmission is the router's own admission snapshot when admission
	// control is enabled at the router.
	RouterAdmission *admit.Stats `json:"router_admission,omitempty"`
	// Detector lists the failure detector's cached per-node liveness rows
	// (absent on replica-less clusters).
	Detector []NodeLiveness `json:"detector,omitempty"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	statuses := rt.probeShards(r.Context(), "/health")
	out := HealthResponse{Status: "ok", Shards: len(statuses)}
	if rt.detector != nil {
		out.Detector = rt.detector.View()
		rt.recordReplicaLag(out.Detector)
	}
	for _, st := range statuses {
		if st.Healthy {
			out.Healthy++
		} else {
			out.Down = append(out.Down, st.Shard)
		}
		if st.Health != nil && st.Health.Admission != nil {
			a := *st.Health.Admission
			out.Admission = append(out.Admission, ShardAdmission{
				Shard: st.Shard,
				Stats: a,
				Shed:  a.Shed(),
			})
		}
	}
	if out.Healthy < out.Shards {
		out.Status = "degraded"
	}
	if rt.admission != nil {
		stats := rt.admission.Stats()
		out.RouterAdmission = &stats
	}
	writeJSON(w, http.StatusOK, out)
}

// recordReplicaLag sets each ring shard's replica-lag gauge to the widest lag
// among its replicas' detector rows (0 for a shard none of whose replicas the
// detector has sampled).
func (rt *Router) recordReplicaLag(rows []NodeLiveness) {
	widest := make([]uint64, rt.Ring().NumShards())
	for _, row := range rows {
		if row.Role == RoleReplica && row.Shard < len(widest) {
			widest[row.Shard] = max(widest[row.Shard], row.LagEvents)
		}
	}
	for shard, lag := range widest {
		rt.rm.replicaLag(shard, lag)
	}
}

func (rt *Router) handleUsers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	// Shards replicate the identifier universe (ownership partitions the
	// serving work, not the tables), so the widest shard view is the
	// cluster's servable-user count.
	statuses := rt.probeShards(r.Context(), "/info")
	max, reachable := 0, 0
	for _, st := range statuses {
		if st.Info != nil {
			reachable++
			if st.Info.NumUsers > max {
				max = st.Info.NumUsers
			}
		}
	}
	if reachable == 0 {
		writeShardFailure(w, fmt.Errorf("%w: no shard answered /info", ErrShardUnavailable))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"servable_users": max})
}

// truncate bounds a hostile body's appearance in an error message.
func truncate(body []byte) string {
	const limit = 200
	if len(body) > limit {
		return string(body[:limit]) + "…"
	}
	return string(body)
}
