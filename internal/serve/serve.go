// Package serve exposes a recommendation Engine over HTTP using only the
// standard library. It is the "production" layer a downstream adopter needs
// to put GANC (or any baseline) behind a service boundary.
//
// Unlike a precomputed-map server, recommendations are computed lazily, one
// user at a time, through the Engine interface: a request for one user never
// pays for the rest of the catalog. Computed lists land in a bounded LRU
// cache together with their encoded wire form, so a hit is answered by
// copying bytes (wire.go); a miss is one Engine call under the request's own
// context. The whole engine can be swapped atomically (e.g. after a nightly
// retrain) while requests are in flight — old requests finish against the
// old engine, new requests see the new one.
// The cache outlives a swap: a list an earlier engine computed is served
// again only once the new engine has proved it is still its exact answer
// (Revalidator), and is recomputed otherwise.
//
// Endpoints:
//
//	GET  /health                   → 200 {"status":"ok"}
//	GET  /info                     → model, dataset and cache metadata
//	GET  /recommend?user=<id>[&n=] → the user's top-N list (external ids)
//	POST /recommend/batch          → {"users":[...]} → lists for many users
//	POST /ingest                   → {"events":[...]} → stream new interactions
//	GET  /users                    → the number of servable users
//	GET  /metrics                  → Prometheus text exposition (with WithMetrics)
//
// POST /ingest is live only when an IngestSink has been attached with
// SetIngestSink (the internal/ingest package provides one); without a sink it
// answers 404, so a read-only deployment exposes no write surface.
//
// The handler is an http.Handler, so it can be mounted into any mux and
// tested with net/http/httptest.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/admit"
	"ganc/internal/dataset"
	"ganc/internal/obs"
	"ganc/internal/types"
)

// Engine is the consumer-side interface the server needs: a display name and
// per-user on-demand recommendation. core.GANC, recommender.TopNEngine and
// the facade engines all satisfy it. (It replaces the old package-level
// Recommender interface, which carried only a Name and was never used.)
type Engine interface {
	Name() string
	RecommendUser(ctx context.Context, u types.UserID, n int) (types.TopNSet, error)
}

// Lineage identifies one line of engine history — in practice one ingestion
// state, whose successive batches each publish an engine. Only its address
// means anything: two engines are of one lineage when they hold the same
// pointer.
type Lineage struct{ _ byte }

// Mark places an engine on its lineage: the stream cursor its state stands at
// and the number of catalog items it ranks. A cached list is stamped with the
// mark of the engine that computed it.
type Mark struct {
	// Lineage is nil for an engine with no history to compare against.
	Lineage *Lineage
	// Seq is the sequence number of the last event the engine's state holds.
	Seq uint64
	// Items is the size of the catalog the engine ranks.
	Items int
}

// Revalidation is what became of a cached list met by a generation other than
// the one that computed it.
type Revalidation uint8

const (
	// RevalKept: the engine proved the list is its exact answer; it is served.
	RevalKept Revalidation = iota
	// RevalItemNamed: an event after the list's mark named one of its items.
	RevalItemNamed
	// RevalCatalog: the catalog grew in a way the list may not survive.
	RevalCatalog
	// RevalForeign: nothing connects the list to the serving engine — either
	// has no lineage, the lineages differ, or the list's mark is ahead.
	RevalForeign
	numRevalidations
)

// String is the outcome's label on ganc_cache_revalidations_total.
func (r Revalidation) String() string {
	return [numRevalidations]string{"kept", "item_named", "catalog", "foreign"}[r]
}

// Revalidator is the optional interface of an Engine whose lists can outlive
// the engine: one built, like its predecessors, from a state that only ever
// moves by appended events. The server asks it about a cached list whose mark
// is of the engine's own lineage and not ahead of the engine's; every other
// list is recomputed without asking.
type Revalidator interface {
	// Mark is the engine's own place on its lineage. It must not change.
	Mark() Mark
	// Revalidate reports whether list — what an engine at from returned for
	// RecommendUser(u, n) — is exactly what this engine would return now
	// (RevalKept), or why that cannot be shown (RevalItemNamed, RevalCatalog).
	// It is on the hit path: no catalog-sized work.
	Revalidate(u types.UserID, list types.TopNSet, n int, from Mark) Revalidation
}

// DefaultCacheCapacity bounds the server's LRU cache when no explicit
// capacity is configured.
const DefaultCacheCapacity = 65536

// Option customizes a Server at construction time.
type Option func(*Server)

// WithCacheCapacity bounds the per-user LRU cache. Capacity ≤ 0 disables
// caching entirely (every request computes through the Engine).
func WithCacheCapacity(capacity int) Option {
	return func(s *Server) { s.capacity = capacity }
}

// ShardIdentity names a server's place in a sharded cluster: which shard it
// is, out of how many, cut for which hash-ring epoch. It is reported through
// /info and /health so a router can detect a shard serving a snapshot from a
// different ring generation (see internal/cluster).
type ShardIdentity struct {
	// ShardID is this server's shard number.
	ShardID int `json:"shard_id"`
	// NumShards is the ring's shard count.
	NumShards int `json:"num_shards"`
	// RingEpoch is the hash-ring membership epoch the shard was cut for.
	RingEpoch uint64 `json:"ring_epoch"`
	// WriteQuorum is the k of the shard's k-of-n write acknowledgement: how
	// many replicas must hold a batch before whichever node is the shard's
	// primary acks it (0 = ship without waiting).
	WriteQuorum int `json:"write_quorum,omitempty"`
}

// WithShardIdentity marks the server as one shard of a cluster; the identity
// is echoed in /info and /health for router-side epoch verification.
func WithShardIdentity(id ShardIdentity) Option {
	return func(s *Server) {
		shard := id
		s.shard.Store(&shard)
	}
}

// SetShardIdentity replaces the server's cluster identity at runtime. Replica
// promotion re-points the shard map under a bumped ring epoch while servers
// keep running, so the identity they echo must be swappable without a restart.
// Safe to call while the server is handling requests.
func (s *Server) SetShardIdentity(id ShardIdentity) {
	shard := id
	s.shard.Store(&shard)
}

// Shard returns the server's current cluster identity, or nil on single-node
// servers.
func (s *Server) Shard() *ShardIdentity {
	return s.shard.Load()
}

// generation is one immutable (engine, stamp) pair. Update installs a fresh
// generation atomically: requests that loaded the old pointer finish against
// the old engine, and a cached list reaches them only through that engine's
// own check, so a swap never mixes two engines' results under one version.
type generation struct {
	engine Engine
	// stamp is what this generation's lists enter the cache with; reval is
	// the engine's Revalidator, nil when it is not one.
	stamp stamp
	reval Revalidator

	// Everything a 200 on the read routes says besides the per-user heads is
	// fixed for the generation's life, so it is encoded once (see wire.go):
	// what follows a head in GET /recommend's answer, what follows it in a
	// batch element, and the batch envelope up to the first element.
	tail      []byte
	elemTail  []byte
	batchHead []byte
}

// stamp says which generation a cached list is known to be exact for: its
// version, and its engine's mark (zero for an engine that is no Revalidator).
type stamp struct {
	version int
	Mark
}

// entry is one cached list: the user it belongs to, the internal set, and the
// head of its wire form ({"user":<key>,"items":[…], encoded when the list
// enters the cache) that every hit copies instead of encoding the list again.
// A list the engine left empty is never served (the read routes answer it
// with an error) and carries no head. An entry holds nothing of the
// generation that computed it but the stamp's numbers, so a cache that
// outlives the generation does not keep it alive.
type entry struct {
	user types.UserID
	set  types.TopNSet
	head []byte
	// stamp moves forward when a later generation keeps the list; once the
	// entry is in the cache it is read and written under the cache's lock.
	stamp stamp
}

// Server serves one Engine over HTTP with lazy per-user computation.
type Server struct {
	train        *dataset.Dataset
	n            int
	capacity     int
	batchWorkers int // DefaultBatchWorkers; the tests vary it
	shard        atomic.Pointer[ShardIdentity]

	gen atomic.Pointer[generation]
	// cache is the one LRU of the server's life, shared by every generation.
	cache *lruCache

	// ingest holds the optional streaming-ingestion sink behind POST /ingest.
	// It is attached after construction (the sink needs the server handle to
	// swap engines), hence the atomic rather than a constructor option.
	ingest atomic.Pointer[ingestHolder]

	// repl holds the optional replication-status probe reported through
	// /health and /metrics; attached after construction like the ingest sink
	// (the shipper/applier needs the server handle first).
	repl atomic.Pointer[replicationProbe]

	hits   atomic.Int64
	misses atomic.Int64
	revals [numRevalidations]atomic.Int64

	// Observability and admission wiring (all optional; see metrics.go).
	metrics      *obs.Registry
	reqLog       *obs.RequestLogger
	admission    *admit.Controller
	httpObs      *obs.HTTPMetrics
	computeHist  *obs.Histogram
	ingestWAL    *obs.Histogram
	ingestPub    *obs.Histogram
	swaps        atomic.Int64
	batchUsers   atomic.Int64
	ingestEvents atomic.Int64
}

// ingestHolder wraps the sink so the atomic pointer has a concrete type even
// though IngestSink is an interface.
type ingestHolder struct{ sink IngestSink }

// New builds a server from a train set (for identifier translation), the
// engine computing recommendations and the default list size n.
func New(train *dataset.Dataset, engine Engine, n int, opts ...Option) (*Server, error) {
	if train == nil {
		return nil, fmt.Errorf("serve: train dataset is required")
	}
	if engine == nil {
		return nil, fmt.Errorf("serve: engine is required")
	}
	if n <= 0 {
		return nil, fmt.Errorf("serve: N must be positive, got %d", n)
	}
	s := &Server{train: train, n: n, capacity: DefaultCacheCapacity, batchWorkers: DefaultBatchWorkers}
	for _, opt := range opts {
		opt(s)
	}
	s.cache = newLRUCache(s.capacity)
	s.gen.Store(newGeneration(engine, 1))
	s.initObservability()
	return s, nil
}

func newGeneration(engine Engine, version int) *generation {
	gen := &generation{engine: engine, stamp: stamp{version: version}}
	if reval, ok := engine.(Revalidator); ok {
		gen.reval, gen.stamp.Mark = reval, reval.Mark()
	}
	gen.encodeFrame()
	return gen
}

// Update atomically swaps in a new engine (e.g. after a nightly retrain or an
// ingested batch) and bumps the version reported by /info. In-flight requests
// complete against the generation they started with. The cache stays: a list
// an earlier generation computed is served under the new version only after
// the new engine's Revalidator has kept it, so an engine that is not one —
// or one of another lineage, or one published out of order — starts from
// lists it computes itself.
func (s *Server) Update(engine Engine) error {
	if engine == nil {
		return fmt.Errorf("serve: refusing to swap in a nil engine")
	}
	for {
		old := s.gen.Load()
		next := newGeneration(engine, old.stamp.version+1)
		if s.gen.CompareAndSwap(old, next) {
			s.swaps.Add(1)
			return nil
		}
	}
}

// Version returns the current engine generation (1 for the initial engine,
// incremented by each Update).
func (s *Server) Version() int { return s.gen.Load().stamp.version }

// CacheStats reports cache effectiveness counters accumulated across all
// generations.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
	// Revalidations counts, by outcome, the cached lists a generation other
	// than their own met: kept ones are among Hits, the rest among Misses.
	Revalidations RevalidationStats `json:"revalidations"`
}

// RevalidationStats is ganc_cache_revalidations_total by outcome.
type RevalidationStats struct {
	Kept      int64 `json:"kept"`
	ItemNamed int64 `json:"item_named"`
	Catalog   int64 `json:"catalog"`
	Foreign   int64 `json:"foreign"`
}

// Stats returns a snapshot of the cache counters.
func (s *Server) Stats() CacheStats {
	return CacheStats{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Size:     s.cache.len(),
		Capacity: s.capacity,
		Revalidations: RevalidationStats{
			Kept:      s.revals[RevalKept].Load(),
			ItemNamed: s.revals[RevalItemNamed].Load(),
			Catalog:   s.revals[RevalCatalog].Load(),
			Foreign:   s.revals[RevalForeign].Load(),
		},
	}
}

// cached is the hit path: the user's cached list, if the serving generation
// computed it or can show it would compute the same. On a miss — no entry, or
// one the generation refused — it still returns the generation it looked
// under.
func (s *Server) cached(u types.UserID) (*entry, *generation, bool) {
	gen := s.gen.Load()
	e, from, ok := s.cache.get(u)
	if !ok {
		return nil, gen, false
	}
	if from.version != gen.stamp.version {
		outcome := gen.revalidate(u, e.set, s.n, from.Mark)
		s.revals[outcome].Add(1)
		if outcome != RevalKept {
			return nil, gen, false
		}
		s.cache.restamp(e, gen.stamp)
	}
	s.hits.Add(1)
	return e, gen, true
}

// revalidate decides whether a list stamped from, by another generation, is
// this generation's answer too. Only a list from the engine's own past is
// worth the engine's time.
func (g *generation) revalidate(u types.UserID, list types.TopNSet, n int, from Mark) Revalidation {
	at := g.stamp.Mark // zero, so without a lineage, when the engine is no Revalidator
	if at.Lineage == nil || from.Lineage != at.Lineage || from.Seq > at.Seq {
		return RevalForeign
	}
	return g.reval.Revalidate(u, list, n, from)
}

// recommend resolves one user's list through the current generation: a
// cache hit, or else compute's.
func (s *Server) recommend(ctx context.Context, u types.UserID) (*entry, *generation, error) {
	e, gen, ok := s.cached(u)
	if ok {
		return e, gen, nil
	}
	e, err := s.compute(ctx, u, gen)
	return e, gen, err
}

// compute is a miss in gen, the generation cached looked in: one engine
// compute under the caller's ctx, whose list enters the cache. A compute that
// fails — the caller's cancellation included — caches nothing, so the next
// request for the user computes.
func (s *Server) compute(ctx context.Context, u types.UserID, gen *generation) (e *entry, err error) {
	s.misses.Add(1)
	// A panicking engine answers this request with an error: over the hop no
	// net/http recover stands behind the handler.
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("serve: engine panic for user %d: %v", u, r)
		}
	}()
	var t0 time.Time
	if s.computeHist != nil {
		t0 = time.Now()
	}
	set, err := gen.engine.RecommendUser(ctx, u, s.n)
	if s.computeHist != nil {
		s.computeHist.Observe(time.Since(t0).Seconds())
	}
	if err != nil {
		return nil, err
	}
	// The list is encoded here, once, on its way into the cache.
	if e, err = s.newEntry(u, set, gen.stamp); err != nil {
		return nil, err
	}
	s.cache.put(e)
	return e, nil
}

// Handler returns the HTTP handler with all routes mounted. When metrics,
// request logging or admission control are configured the mux is wrapped in
// middleware, outermost first: instrumentation (so shed requests are still
// counted and logged), then admission (so /health and /metrics stay
// reachable on an overloaded server), then the routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/health", s.handleHealth)
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/recommend", s.handleRecommend)
	mux.HandleFunc("/recommend/batch", s.handleBatch)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/users", s.handleUsers)
	if s.metrics != nil {
		mux.Handle("/metrics", s.metrics.Handler())
	}
	var h http.Handler = mux
	h = s.admission.Middleware(h)
	if s.httpObs != nil {
		h = s.httpObs.Wrap(h)
	}
	return h
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	resp := HealthResponse{Status: "ok", Version: s.Version()}
	if shard := s.shard.Load(); shard != nil {
		id := shard.ShardID
		resp.Shard = &id
	}
	if s.admission != nil {
		stats := s.admission.Stats()
		resp.Admission = &stats
	}
	if p := s.repl.Load(); p != nil {
		st := p.fn()
		resp.Replication = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

// InfoResponse is the payload of GET /info.
type InfoResponse struct {
	Model    string     `json:"model"`
	Dataset  string     `json:"dataset"`
	NumUsers int        `json:"num_users"`
	NumItems int        `json:"num_items"`
	TopN     int        `json:"top_n"`
	Version  int        `json:"version"`
	Cache    CacheStats `json:"cache"`
	// Shard carries the server's cluster identity when it serves as one
	// shard of a sharded deployment (absent on single-node servers).
	Shard *ShardIdentity `json:"cluster_shard,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	gen := s.gen.Load()
	// Universe sizes come from the identifier tables, not the construction-
	// time dataset snapshot: streaming ingestion grows the tables in place,
	// so this reflects every currently addressable user/item.
	writeJSON(w, http.StatusOK, InfoResponse{
		Model:    gen.engine.Name(),
		Dataset:  s.train.Name(),
		NumUsers: s.train.UserInterner().Len(),
		NumItems: s.train.ItemInterner().Len(),
		TopN:     s.n,
		Version:  gen.stamp.version,
		Cache:    s.Stats(),
		Shard:    s.shard.Load(),
	})
}

// RecommendResponse is the payload of GET /recommend and one element of the
// batch response.
type RecommendResponse struct {
	User    string   `json:"user"`
	Items   []string `json:"items"`
	Model   string   `json:"model,omitempty"`
	Version int      `json:"version"`
	Error   string   `json:"error,omitempty"`
}

func (s *Server) lookupUser(key string) (types.UserID, bool) {
	idx, ok := s.train.UserInterner().Lookup(key)
	return types.UserID(idx), ok
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	query := r.URL.Query()
	userKey := query.Get("user")
	if userKey == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing ?user="})
		return
	}
	u, ok := s.lookupUser(userKey)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown user " + userKey})
		return
	}
	e, gen, err := s.recommend(r.Context(), u)
	if errors.Is(err, types.ErrUnknownUser) {
		// Interned by an ingest whose engine is not published yet.
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown user " + userKey})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	if len(e.set) == 0 {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no recommendations for user " + userKey})
		return
	}
	// An explicit &n= below the server's N truncates the (cached) full list;
	// values above it are capped so every request stays cacheable.
	buf := getBody()
	s.appendList(buf, userKey, e, parseN(query.Get("n"), s.n), gen.tail)
	writeBody(w, buf)
}

// BatchRequest is the payload of POST /recommend/batch.
type BatchRequest struct {
	Users []string `json:"users"`
}

// BatchResponse is the payload of POST /recommend/batch. Results preserve the
// request order; per-user failures are reported inline so one bad user does
// not fail the whole batch.
type BatchResponse struct {
	Model   string              `json:"model"`
	Version int                 `json:"version"`
	Results []RecommendResponse `json:"results"`
}

// MaxBatchUsers bounds a single batch request so a malformed client cannot
// ask for the whole catalog in one call; DefaultBatchWorkers bounds the
// concurrent engine sweeps one batch request may trigger. Only a batch's
// cache misses reach the workers — its hits are resolved inline — so the
// bound is on cold users; engines built on the buffered candidate pipeline
// pool their sweep scratch, so the bound trades memory for batch latency.
const (
	MaxBatchUsers       = 10000
	DefaultBatchWorkers = 8
)

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	req, ok := ReadBatchRequest(w, r)
	if !ok {
		return
	}
	gen := s.gen.Load()
	// One inline pass resolves unknown users and cache hits; only the misses,
	// each an engine sweep in the generation the pass looked in, go to a
	// bounded worker pool. compute() is concurrency-safe (the cache and the
	// generation swap both are), and an element carries the version of the
	// generation that served it.
	results := make([]batchElem, len(req.Users))
	var misses []int
	for k, userKey := range req.Users {
		el := &results[k]
		if el.u, el.known = s.lookupUser(userKey); !el.known {
			continue
		}
		var hit bool
		if el.entry, el.gen, hit = s.cached(el.u); !hit {
			misses = append(misses, k)
		}
	}
	if workers := min(s.batchWorkers, len(misses)); workers > 0 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for {
					m := int(next.Add(1)) - 1
					if m >= len(misses) {
						return
					}
					el := &results[misses[m]]
					el.entry, el.err = s.compute(r.Context(), el.u, el.gen)
				}
			}()
		}
		wg.Wait()
	}
	s.batchUsers.Add(int64(len(req.Users)))

	buf := getBody()
	buf.Write(gen.batchHead)
	for k, userKey := range req.Users {
		if k > 0 {
			buf.WriteByte(',')
		}
		switch el := &results[k]; {
		case !el.known || errors.Is(el.err, types.ErrUnknownUser):
			appendElemError(buf, userKey, "unknown user")
		case el.err != nil:
			appendElemError(buf, userKey, el.err.Error())
		case len(el.entry.set) == 0:
			// Mirror the single-user endpoint's 404 contract inline.
			appendElemError(buf, userKey, "no recommendations for user "+userKey)
		default:
			// A batch element is the whole cached list, never cut.
			s.appendList(buf, userKey, el.entry, len(el.entry.set), el.gen.elemTail)
		}
	}
	buf.WriteString(batchClose)
	writeBody(w, buf)
}

// batchElem is one user's slot while a batch resolves: the lookup's verdict,
// then the list and the generation that served it, or the error.
type batchElem struct {
	u     types.UserID
	known bool
	entry *entry
	gen   *generation
	err   error
}

// --- Streaming ingestion ------------------------------------------------------

// IngestEvent is one observed interaction submitted through POST /ingest,
// keyed by external identifiers (new users and items are interned on the
// fly).
type IngestEvent struct {
	User  string  `json:"user"`
	Item  string  `json:"item"`
	Value float64 `json:"value"`
}

// IngestResult summarizes one applied ingestion batch.
type IngestResult struct {
	// Applied is the number of events absorbed into the serving state.
	Applied int `json:"applied"`
	// Seq is the sink's total applied-event sequence number after the batch
	// (the checkpoint/replay cursor).
	Seq uint64 `json:"seq"`
	// Version is the engine generation serving the post-batch state.
	Version int `json:"version"`
	// Warning reports a post-commit problem (engine republish or checkpoint
	// failure): the events ARE durably applied — retrying the batch would
	// double-count it — but the operator should look. Empty on full success.
	Warning string `json:"warning,omitempty"`
}

// IngestSink consumes interaction events and folds them into the serving
// state, typically finishing with an atomic engine swap on this server. The
// internal/ingest package provides the standard implementation.
type IngestSink interface {
	IngestEvents(ctx context.Context, events []IngestEvent) (IngestResult, error)
}

// SetIngestSink attaches (or, with nil, detaches) the sink behind POST
// /ingest. Safe to call while the server is handling requests.
func (s *Server) SetIngestSink(sink IngestSink) {
	if sink == nil {
		s.ingest.Store(nil)
		return
	}
	s.ingest.Store(&ingestHolder{sink: sink})
}

// IngestRequest is the payload of POST /ingest.
type IngestRequest struct {
	Events []IngestEvent `json:"events"`
}

// MaxIngestEvents bounds one ingestion batch, mirroring MaxBatchUsers. The
// cluster router enforces the same limits, so a routed deployment rejects
// exactly what a single node rejects.
const MaxIngestEvents = 10000

// MaxBodyBytes bounds the body of one batch, ingest or stream request: a
// node or router reads no more of it, so one oversized key cannot balloon
// memory before the count limits above get to run.
const MaxBodyBytes = 16 << 20

// ReadBatchRequest decodes and checks a POST /recommend/batch body, for the
// single node and the router alike. When the body is refused — past
// MaxBodyBytes (413), not JSON, an empty list or one over MaxBatchUsers
// (400) — it has already answered, and reports false.
func ReadBatchRequest(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	switch {
	case !decodeBody(w, r, &req):
		return req, false
	case len(req.Users) == 0:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "users list is empty"})
		return req, false
	case len(req.Users) > MaxBatchUsers:
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("batch of %d users exceeds the limit of %d", len(req.Users), MaxBatchUsers)})
		return req, false
	}
	return req, true
}

// ReadIngestRequest is ReadBatchRequest for a POST /ingest body: it also
// refuses an event missing its user or item key.
func ReadIngestRequest(w http.ResponseWriter, r *http.Request) (IngestRequest, bool) {
	var req IngestRequest
	switch {
	case !decodeBody(w, r, &req):
		return req, false
	case len(req.Events) == 0:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "events list is empty"})
		return req, false
	case len(req.Events) > MaxIngestEvents:
		writeJSON(w, http.StatusBadRequest, map[string]string{
			"error": fmt.Sprintf("batch of %d events exceeds the limit of %d", len(req.Events), MaxIngestEvents)})
		return req, false
	}
	for k, ev := range req.Events {
		if ev.User == "" || ev.Item == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("event %d is missing a user or item key", k)})
			return req, false
		}
	}
	return req, true
}

// decodeBody decodes at most MaxBodyBytes of JSON body into v, answering 413
// or 400 itself when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("request body exceeds the limit of %d bytes", MaxBodyBytes)})
	} else {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid JSON: " + err.Error()})
	}
	return false
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return
	}
	holder := s.ingest.Load()
	if holder == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "ingestion is not enabled on this server"})
		return
	}
	req, ok := ReadIngestRequest(w, r)
	if !ok {
		return
	}
	res, err := holder.sink.IngestEvents(r.Context(), req.Events)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	s.ingestEvents.Add(int64(res.Applied))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "GET only"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"servable_users": s.train.UserInterner().Len()})
}

// parseN reads an optional positive integer query parameter, falling back to
// def on absence or garbage.
func parseN(raw string, def int) int {
	if raw == "" {
		return def
	}
	if v, err := strconv.Atoi(raw); err == nil && v > 0 {
		return v
	}
	return def
}

// --- Bounded LRU cache --------------------------------------------------------

// lruCache is a mutex-guarded bounded LRU over per-user cache entries. A
// capacity ≤ 0 disables it (every get misses, every put is dropped). Entries
// of every generation share it; their stamps are ordered by version, and
// neither put nor restamp ever moves a user's stamp backwards.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[types.UserID]*list.Element
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[types.UserID]*list.Element),
	}
}

// get returns u's entry and the stamp it carries at this moment.
func (c *lruCache) get(u types.UserID) (*entry, stamp, bool) {
	if c.capacity <= 0 {
		return nil, stamp{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[u]
	if !ok {
		return nil, stamp{}, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return e, e.stamp, true
}

// put caches e unless its user's entry is already known exact for a later
// generation: a slow compute of a retired generation finishes after the
// generations that replaced it have cached their own answer.
func (c *lruCache) put(e *entry) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.user]; ok {
		if el.Value.(*entry).stamp.version <= e.stamp.version {
			el.Value = e
			c.ll.MoveToFront(el)
		}
		return
	}
	c.items[e.user] = c.ll.PushFront(e)
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).user)
	}
}

// restamp records that the generation stamped to has kept e, if e is still
// its user's entry and no later generation got there first.
func (c *lruCache) restamp(e *entry, to stamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.user]; ok && el.Value == any(e) && e.stamp.version < to.version {
		e.stamp = to
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
