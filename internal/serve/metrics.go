package serve

import (
	"net/http"
	"time"

	"ganc/internal/admit"
	"ganc/internal/obs"
)

// WithMetrics attaches a metrics registry: the server registers its engine,
// cache and ingestion series on it, instruments every route with request
// counters and latency histograms, and mounts GET /metrics on the handler.
// The registry may be shared (e.g. with an admission controller or a
// process-level registrar); series names are fixed, so two servers must not
// share one registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithRequestLog emits one structured JSON line per request (method, route,
// status, shard, duration, engine version, client key) to the logger.
func WithRequestLog(l *obs.RequestLogger) Option {
	return func(s *Server) { s.reqLog = l }
}

// WithAdmission applies admission control — per-client rate limiting and a
// concurrency cap — around every route except /health, /metrics and /info.
// The zero configuration admits everything.
func WithAdmission(cfg admit.Config) Option {
	return func(s *Server) { s.admission = admit.New(cfg) }
}

// initObservability finishes construction: builds the HTTP instrumentation
// middleware and registers the server's metric families. Called once from
// New after options are applied.
func (s *Server) initObservability() {
	if s.metrics == nil && s.reqLog == nil {
		return
	}
	reg := s.metrics
	if reg == nil {
		// Request logging without a /metrics endpoint still needs a registry
		// for the middleware's internals; keep it private.
		reg = obs.NewRegistry()
	}
	s.httpObs = obs.NewHTTPMetrics(reg, s.reqLog, s.requestMeta, nil)
	s.computeHist = reg.Histogram("ganc_engine_compute_seconds",
		"Cold-path engine computation latency per user (cache misses only).", nil)
	s.ingestWAL = reg.Histogram("ganc_ingest_wal_seconds",
		"Write-ahead-log append and fsync time per ingested batch.", nil)
	s.ingestPub = reg.Histogram("ganc_ingest_publish_seconds",
		"Apply, engine rebuild and swap time per ingested batch.", nil)
	reg.GaugeFunc("ganc_engine_version",
		"Current engine generation (1 initial, +1 per swap).",
		func() float64 { return float64(s.Version()) })
	reg.CounterFunc("ganc_engine_swaps_total",
		"Atomic engine swaps since start.",
		func() float64 { return float64(s.swaps.Load()) })
	reg.CounterFunc("ganc_cache_hits_total",
		"Recommendation cache hits, an older generation's list the engine kept included.",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("ganc_cache_misses_total",
		"Recommendation cache misses, a refused older list included (each one is an engine computation).",
		func() float64 { return float64(s.misses.Load()) })
	for r := Revalidation(0); r < numRevalidations; r++ {
		count := &s.revals[r]
		reg.CounterFunc("ganc_cache_revalidations_total",
			"Cached lists met by a generation other than the one that computed them, by outcome: kept (served, a hit) or why recomputed.",
			func() float64 { return float64(count.Load()) }, obs.L("outcome", r.String()))
	}
	reg.GaugeFunc("ganc_cache_size",
		"Entries in the server's cache (one cache, shared by every engine generation).",
		func() float64 { return float64(s.cache.len()) })
	reg.GaugeFunc("ganc_cache_capacity",
		"Configured cache capacity.",
		func() float64 { return float64(s.capacity) })
	reg.CounterFunc("ganc_batch_users_total",
		"Users processed through POST /recommend/batch.",
		func() float64 { return float64(s.batchUsers.Load()) })
	reg.CounterFunc("ganc_ingest_events_total",
		"Interaction events applied through POST /ingest.",
		func() float64 { return float64(s.ingestEvents.Load()) })
	// Replication series read through the probe attached later with
	// SetReplicationProbe; they report 0 until (and unless) one is attached.
	reg.GaugeFunc("ganc_replication_applied_seq",
		"Applied write-ahead-log cursor of this node's replication role (0 when replication is off).",
		func() float64 {
			if p := s.repl.Load(); p != nil {
				return float64(p.fn().AppliedSeq)
			}
			return 0
		})
	reg.GaugeFunc("ganc_replication_lag_events",
		"Committed events this node has not applied yet (replicas; 0 on primaries and when replication is off).",
		func() float64 {
			if p := s.repl.Load(); p != nil {
				return float64(p.fn().LagEvents)
			}
			return 0
		})
	if s.admission != nil {
		s.admission.Register(reg)
	}
}

// ObserveIngestStages records one ingested batch's write-path stage times:
// the write-ahead-log append (zero, and then not recorded, for an ingestor
// without a log), then state apply + engine rebuild + swap. The ingestor
// calls it from its own stage boundaries; it is a no-op on a server without a
// metrics registry.
func (s *Server) ObserveIngestStages(wal, publish time.Duration) {
	if s.ingestWAL == nil {
		return
	}
	if wal > 0 {
		s.ingestWAL.Observe(wal.Seconds())
	}
	s.ingestPub.Observe(publish.Seconds())
}

// requestMeta supplies the request-log fields the middleware cannot derive:
// shard identity, serving version, and the admission client key.
func (s *Server) requestMeta(r *http.Request) (*int, int, string) {
	var shard *int
	if sh := s.shard.Load(); sh != nil {
		id := sh.ShardID
		shard = &id
	}
	return shard, s.Version(), s.admission.ClientKey(r)
}

// HealthResponse is the payload of GET /health. Status is always "ok" when
// the process can answer at all; the point of the extra fields is triage —
// a router aggregates them so an operator can see which shard is shedding
// and how saturated its concurrency cap is without scraping every node.
type HealthResponse struct {
	// Status is "ok".
	Status string `json:"status"`
	// Shard is the server's shard ID when it serves as part of a cluster.
	Shard *int `json:"shard,omitempty"`
	// Version is the current engine generation.
	Version int `json:"version"`
	// Admission carries shed counts and limiter saturation when admission
	// control is enabled.
	Admission *admit.Stats `json:"admission,omitempty"`
	// Replication carries the server's replication role and cursor lag when
	// it participates in a primary→replica pair (absent otherwise).
	Replication *ReplicationStatus `json:"replication,omitempty"`
}

// --- Replication status -------------------------------------------------------

// ReplicationStatus describes a server's place in per-shard primary→replica
// replication: its role, its applied write-ahead-log cursor, and how far it
// (or its replicas) lag behind the committed head. The cluster layer computes
// it — a primary's shipper knows every replica's acknowledged cursor, a
// replica's applier knows the last head the primary announced — and attaches
// it with SetReplicationProbe; the server merely reports it through /health
// and /metrics. Lag is measured in events (WAL sequence delta); because every
// replicated batch is republished through the versioned engine swap, the
// version lag is bounded by the same number.
type ReplicationStatus struct {
	// Role is "primary" or "replica".
	Role string `json:"role"`
	// AppliedSeq is this server's applied write-ahead-log cursor.
	AppliedSeq uint64 `json:"applied_seq"`
	// PrimarySeq is the primary's committed head as this server knows it (on
	// a primary, equal to AppliedSeq; on a replica, the head last announced
	// over /replicate).
	PrimarySeq uint64 `json:"primary_seq"`
	// LagEvents is PrimarySeq − AppliedSeq: how many committed events this
	// server has not applied yet. Always 0 on a primary.
	LagEvents uint64 `json:"lag_events"`
	// Replicas reports per-replica shipping progress (primaries only).
	Replicas []ReplicaLag `json:"replicas,omitempty"`
	// WriteQuorum is the k of the primary's k-of-n write acknowledgement
	// policy (0 when commits are not quorum-acknowledged; primaries only).
	WriteQuorum int `json:"write_quorum,omitempty"`
	// QuorumAckedSeq is the highest committed cursor acknowledged by at
	// least WriteQuorum replicas — the durability frontier a quorum-acked
	// write is guaranteed to sit behind (primaries with a quorum only).
	QuorumAckedSeq uint64 `json:"quorum_acked_seq,omitempty"`
	// QuorumTimeouts counts commits whose quorum wait expired and degraded
	// to asynchronous catch-up (primaries with a quorum only).
	QuorumTimeouts int64 `json:"quorum_timeouts,omitempty"`
}

// ReplicaLag is one replica's shipping progress as seen by its primary.
type ReplicaLag struct {
	// Addr is the replica's host:port.
	Addr string `json:"addr"`
	// AckedSeq is the last cursor the replica acknowledged.
	AckedSeq uint64 `json:"acked_seq"`
	// LagEvents is the primary's head minus AckedSeq.
	LagEvents uint64 `json:"lag_events"`
	// InSync is true while the replica acknowledges commits inline; false
	// while the background catch-up loop is re-feeding it from the WAL.
	InSync bool `json:"in_sync"`
	// Error is the last shipping failure, empty while healthy.
	Error string `json:"error,omitempty"`
}

// replicationProbe wraps the status callback so the atomic pointer has a
// concrete type.
type replicationProbe struct{ fn func() ReplicationStatus }

// SetReplicationProbe attaches (or, with nil, detaches) the callback behind
// the /health replication section and the ganc_replication_* metric series.
// Safe to call while the server is handling requests; the callback must be
// safe for concurrent use.
func (s *Server) SetReplicationProbe(fn func() ReplicationStatus) {
	if fn == nil {
		s.repl.Store(nil)
		return
	}
	s.repl.Store(&replicationProbe{fn: fn})
}
