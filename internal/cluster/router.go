package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
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
	// Client is the HTTP client used for shard calls (default: a client with
	// keep-alive pooling sized for the shard count and a 30s timeout).
	Client *http.Client
	// Retries is how many times a failed shard call is retried before the
	// typed 503 (default 2, i.e. 3 attempts). Negative disables retries.
	Retries int
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
	// MaxReplicaLag is the read-failover staleness bound: a replica whose
	// reported lag exceeds this many committed events is never chosen as a
	// read target (default DefaultMaxReplicaLag; negative disables failover).
	MaxReplicaLag int64
	// DetectInterval and SuspectAfter tune the failure detector the router
	// runs whenever its ring declares a replica: the /health sampling period
	// (default 250ms) and how many consecutive missed probes turn a node
	// suspected (default 3). Failed reads pick their failover replica from
	// the detector's cached view, and a suspected-down primary is skipped
	// without burning the retry budget.
	DetectInterval time.Duration
	SuspectAfter   int
	// OnSuspectPrimary, when set, fires (in its own goroutine) the first time
	// a shard's primary turns suspected, once per outage episode — the hook
	// automatic promotion hangs off. It may run until Close returns.
	OnSuspectPrimary func(shard int, addr string)

	// retryBackoff is the pause between attempts (default 25ms) and
	// probeTimeout bounds one shard's /health or /info probe during
	// aggregation (default 2s); only the package's tests shorten them.
	retryBackoff time.Duration
	probeTimeout time.Duration
}

// DefaultMaxReplicaLag is the default staleness bound for read failover, in
// committed events. A replica kept in sync by the shipper sits at 0–1 events
// of lag; the bound only bites while a replica is catching up from the WAL,
// when serving its answers would silently rewind a user's visible history.
const DefaultMaxReplicaLag = 1024

// Router is the scatter-gather front of a shard set: it proxies single-user
// reads to the owning shard, fans batch reads and ingest batches out across
// owning shards, merges the answers, and aggregates health and info. It is
// stateless apart from its configuration and its liveness cache, so any
// number of router replicas can front the same shard set. Close a router
// over a replicated ring when it retires: it owns a sampling goroutine.
type Router struct {
	ring     atomic.Pointer[Ring]
	client   *http.Client
	attempts int
	backoff  time.Duration
	probe    time.Duration
	maxLag   int64

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
	attempts := cfg.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	backoff := cfg.retryBackoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	probe := cfg.probeTimeout
	if probe <= 0 {
		probe = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		transport := http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConnsPerHost = 64
		client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	}
	maxLag := cfg.MaxReplicaLag
	if maxLag == 0 {
		maxLag = DefaultMaxReplicaLag
	}
	rt := &Router{
		client:    client,
		attempts:  attempts,
		backoff:   backoff,
		probe:     probe,
		maxLag:    maxLag,
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
			rt.detector = NewDetector(DetectorConfig{
				Ring:             rt.Ring,
				Interval:         cfg.DetectInterval,
				SuspectAfter:     cfg.SuspectAfter,
				OnSuspectPrimary: cfg.OnSuspectPrimary,
				Metrics:          cfg.Metrics,
			})
			break
		}
	}
	return rt, nil
}

// Close stops the router's failure detector and waits for any suspicion
// callback it spawned. The routes keep answering (without read failover);
// safe to call more than once, a no-op on a replica-less ring.
func (rt *Router) Close() {
	if rt.detector != nil {
		rt.detector.Close()
	}
}

// Ring returns the ring the router currently routes by.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// UpdateRing atomically re-points the router at a new shard map — the
// promotion path: the shard count must match (ownership is hashed by shard
// ID, and the per-shard metric slices are sized once), but addresses,
// replica lists and the epoch may all change. In-flight requests finish
// against the ring they started with.
func (rt *Router) UpdateRing(ring *Ring) error {
	if ring == nil {
		return fmt.Errorf("%w: router needs a ring", ErrBadRing)
	}
	cur := rt.Ring()
	if ring.NumShards() != cur.NumShards() {
		return fmt.Errorf("%w: shard count changed from %d to %d; a router cannot re-shard in place",
			ErrBadRing, cur.NumShards(), ring.NumShards())
	}
	for _, s := range ring.Shards() {
		if s.Addr == "" {
			return fmt.Errorf("%w: shard %d has no address", ErrBadRing, s.ID)
		}
	}
	rt.ring.Store(ring)
	return nil
}

// Owner returns the index of the shard owning the user key (the ring's
// assignment; exposed so drivers and tests can partition work the same way
// the router does).
func (rt *Router) Owner(userKey string) int { return rt.Ring().Owner(userKey) }

// beginReshard puts the router into the double-ring transition state: writes
// are routed by the next ring immediately (freezing moving users' histories
// at their old owners), while reads for the moving users stay on their old
// owners until flipUser raises their flip bit. UpdateRing stays refused for
// shard-count changes; Reshard (migrate.go), which sequences these four
// steps, is the one sanctioned path through a topology change. Only one
// reshard may be in flight at a time.
func (rt *Router) beginReshard(next *Ring, moving map[string]UserMove) error {
	cur := rt.Ring()
	if next.Epoch() <= cur.Epoch() {
		return fmt.Errorf("%w: next ring epoch %d is not newer than the current epoch %d",
			ErrBadRing, next.Epoch(), cur.Epoch())
	}
	for _, s := range next.Shards() {
		if s.Addr == "" {
			return fmt.Errorf("%w: shard %d has no address", ErrBadRing, s.ID)
		}
	}
	rs := &reshardState{next: next, users: make(map[string]*migratingUser, len(moving)), began: time.Now()}
	for user, mv := range moving {
		rs.users[user] = &migratingUser{from: mv.From}
	}
	if !rt.reshard.CompareAndSwap(nil, rs) {
		return fmt.Errorf("%w: a reshard is already in flight", ErrBadRing)
	}
	return nil
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

// Resharding reports whether a ring transition is in flight.
func (rt *Router) Resharding() bool { return rt.reshard.Load() != nil }

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

// callShard performs one call against the shard's primary.
func (rt *Router) callShard(ctx context.Context, shard int, method, pathAndQuery string, body []byte) (int, []byte, error) {
	info, err := rt.shardInfo(shard)
	if err != nil {
		return 0, nil, &ShardError{Shard: shard, Attempts: 0, Err: fmt.Errorf("%w: %v", ErrShardUnavailable, err)}
	}
	return rt.callAddr(ctx, shard, info.Addr, method, pathAndQuery, body)
}

// callAddr performs one shard call against an explicit address with the
// bounded retry budget: transport errors and 5xx answers are retried with
// backoff; any other HTTP answer is returned as-is (4xx is the shard's
// verdict, not a routing failure). The returned body is fully read so
// connections return to the keep-alive pool.
func (rt *Router) callAddr(ctx context.Context, shard int, addr, method, pathAndQuery string, body []byte) (int, []byte, error) {
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
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, "http://"+addr+pathAndQuery, reader)
		if err != nil {
			return 0, nil, &ShardError{Shard: shard, Addr: addr, Attempts: attempt + 1,
				Err: fmt.Errorf("%w: building request: %v", ErrShardUnavailable, err)}
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		payload, err := readShardBody(resp)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= 500 {
			lastErr = fmt.Errorf("shard answered %d", resp.StatusCode)
			continue
		}
		return resp.StatusCode, payload, nil
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
		status, payload, err = rt.callShard(ctx, shard, method, pathAndQuery, body)
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
		if st, repointed, err2 := rt.callAddr(ctx, shard, info.Addr, method, pathAndQuery, body); err2 == nil {
			return st, repointed, nil
		}
	}
	replicas := info.Replicas
	if len(replicas) == 0 || rt.maxLag < 0 {
		return status, payload, err
	}
	addr, ok := rt.failoverTarget(replicas)
	if !ok {
		return status, payload, err
	}
	rt.rm.failover(shard)
	st, body2, err2 := rt.callAddr(ctx, shard, addr, method, pathAndQuery, body)
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
	return rt.detector.FreshestReplica(replicas, rt.maxLag)
}

// maxShardResponse bounds how much of a shard answer the router will buffer,
// so a hostile or broken shard cannot balloon router memory; maxDeclaredAlloc
// bounds how much it allocates on the strength of a Content-Length alone.
const (
	maxShardResponse = 64 << 20
	maxDeclaredAlloc = 64 << 10
)

// readShardBody is io.ReadAll over the bounded body, except that the buffer
// starts at the declared Content-Length, so an honest answer is read into one
// allocation with no regrowth. A shard that declares more than it sends costs
// at most maxDeclaredAlloc; past that the buffer grows only with bytes that
// actually arrived.
func readShardBody(resp *http.Response) ([]byte, error) {
	size := int64(512)
	if resp.ContentLength > 0 {
		size = min(resp.ContentLength, maxDeclaredAlloc)
	}
	body := io.LimitReader(resp.Body, maxShardResponse)
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// Handler returns the router's HTTP surface. The routes mirror the shard
// servers', so a client cannot tell a router from a single node apart from
// the extra cluster detail in /info.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", rt.handleHealth)
	mux.HandleFunc("/info", rt.handleInfo)
	mux.HandleFunc("/recommend", rt.handleRecommend)
	mux.HandleFunc("/recommend/batch", rt.handleBatch)
	mux.HandleFunc("/ingest", rt.handleIngest)
	mux.HandleFunc("/users", rt.handleUsers)
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
	var req serve.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid JSON: " + err.Error()})
		return
	}
	if len(req.Users) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "users list is empty"})
		return
	}
	// The router enforces the single-node batch limit itself: fanning an
	// oversized batch out would either multiply the limit by the shard count
	// or bounce a client mistake back as a misleading shard-side 503.
	if len(req.Users) > serve.MaxBatchUsers {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("batch of %d users exceeds the limit of %d", len(req.Users), serve.MaxBatchUsers)})
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
	answers := make([]batchWire, len(shards))
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

	// The merged answer is serve's envelope with the shards' own element
	// bytes placed by request index, encoded once.
	out := batchWire{Results: make([]json.RawMessage, len(req.Users)), Shards: make([]ShardBatchMeta, len(shards))}
	for i, shard := range shards {
		// A partial batch would silently drop users, so any shard failure
		// fails the whole request loudly.
		if errs[i] != nil {
			writeShardFailure(w, errs[i])
			return
		}
		ans := answers[i]
		for k, idx := range perShard[shard] {
			out.Results[idx] = ans.Results[k]
		}
		out.Shards[i] = ShardBatchMeta{Shard: shard, Users: len(perShard[shard]), Model: ans.Model, Version: ans.Version}
		out.Model = ans.Model
		out.Version += ans.Version
	}
	writeJSON(w, http.StatusOK, out)
}

// batchWire is BatchResponse as the router handles it: the envelope decoded,
// each element left as the bytes the shard encoded. It decodes a shard's
// sub-batch answer (serve.BatchResponse, no shards) and encodes the router's
// own; for the same content the bytes equal BatchResponse's.
type batchWire struct {
	Model   string            `json:"model"`
	Version int               `json:"version"`
	Results []json.RawMessage `json:"results"`
	Shards  []ShardBatchMeta  `json:"shards"`
}

// subBatch asks one shard for its share of a batch — the users at indices —
// and checks the envelope: valid JSON, one element per user, each element a
// JSON object. What is inside an element is the shard's to say and is relayed
// as it came, as passthrough relays a single-user answer.
func (rt *Router) subBatch(ctx context.Context, shard int, all []string, indices []int) (batchWire, error) {
	users := make([]string, len(indices))
	for k, idx := range indices {
		users[k] = all[idx]
	}
	payload, _ := json.Marshal(serve.BatchRequest{Users: users})
	info, _ := rt.shardInfo(shard)
	malformed := func(err error) (batchWire, error) {
		return batchWire{}, &ShardError{Shard: shard, Addr: info.Addr, Attempts: 1, Err: err}
	}
	status, body, err := rt.callShardRead(ctx, shard, http.MethodPost, "/recommend/batch", payload)
	if err != nil {
		return batchWire{}, err
	}
	if status != http.StatusOK {
		return malformed(fmt.Errorf("%w: sub-batch rejected with status %d: %s", ErrShardResponse, status, truncate(body)))
	}
	// Room for the expected elements up front: the decoder then fills the
	// slice in place instead of growing it through reflection.
	ans := batchWire{Results: make([]json.RawMessage, 0, len(users))}
	if err := json.Unmarshal(body, &ans); err != nil {
		return malformed(fmt.Errorf("%w: decoding sub-batch answer: %v", ErrShardResponse, err))
	}
	if len(ans.Results) != len(users) {
		return malformed(fmt.Errorf("%w: sub-batch answered %d results for %d users", ErrShardResponse, len(ans.Results), len(users)))
	}
	for k, el := range ans.Results {
		if len(el) == 0 || el[0] != '{' {
			return malformed(fmt.Errorf("%w: sub-batch result %d is not an object: %s", ErrShardResponse, k, truncate(el)))
		}
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
	var req serve.IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid JSON: " + err.Error()})
		return
	}
	if len(req.Events) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "events list is empty"})
		return
	}
	// Mirror the single-node ingest limit (see handleBatch for the reason).
	if len(req.Events) > serve.MaxIngestEvents {
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("batch of %d events exceeds the limit of %d", len(req.Events), serve.MaxIngestEvents)})
		return
	}
	for k, ev := range req.Events {
		if ev.User == "" || ev.Item == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("event %d is missing a user or item key", k)})
			return
		}
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
			status, body, err := rt.callShard(r.Context(), shard, http.MethodPost, "/ingest", payload)
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
			status, body, err := rt.callShard(ctx, i, http.MethodGet, path, nil)
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
		out.Cache.Coalesced += info.Cache.Coalesced
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
	// Replicas lists per-replica liveness and lag, one row per replica
	// address in the ring (absent on replica-less clusters).
	Replicas []ReplicaHealth `json:"replicas,omitempty"`
	// Detector lists the failure detector's cached per-node liveness rows
	// (absent on replica-less clusters).
	Detector []NodeLiveness `json:"detector,omitempty"`
}

// ReplicaHealth is one replica's row in the router's aggregated /health
// answer, as of the failure detector's latest sample: whether it answered,
// its applied cursor and how many committed events it lags its primary.
type ReplicaHealth struct {
	// Shard and Addr identify the replica.
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// Healthy reports whether the replica answered the detector's last probe.
	Healthy bool `json:"healthy"`
	// Error carries the probe failure when Healthy is false.
	Error string `json:"error,omitempty"`
	// AppliedSeq and LagEvents echo the replica's replication cursor.
	AppliedSeq uint64 `json:"applied_seq"`
	LagEvents  uint64 `json:"lag_events"`
}

// replicaRows reads every ring replica's row out of the detector's cached
// view — no probe — and records the widest per-shard lag in the replica-lag
// gauge. A replica the detector has not sampled yet reads as unhealthy.
func (rt *Router) replicaRows() []ReplicaHealth {
	if rt.detector == nil {
		return nil
	}
	ring := rt.Ring()
	var rows []ReplicaHealth
	for i := 0; i < ring.NumShards(); i++ {
		info := ring.Shard(i)
		var widest uint64
		for _, addr := range info.Replicas {
			row := ReplicaHealth{Shard: info.ID, Addr: addr, Error: "not sampled by the failure detector yet"}
			if live, ok := rt.detector.Node(addr); ok {
				row.Healthy, row.Error = live.Alive, live.Error
				row.AppliedSeq, row.LagEvents = live.AppliedSeq, live.LagEvents
			}
			widest = max(widest, row.LagEvents)
			rows = append(rows, row)
		}
		rt.rm.replicaLag(i, widest)
	}
	return rows
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	statuses := rt.probeShards(r.Context(), "/health")
	out := HealthResponse{Status: "ok", Shards: len(statuses)}
	out.Replicas = rt.replicaRows()
	if rt.detector != nil {
		out.Detector = rt.detector.View()
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
