package ganc

import (
	"io"

	"ganc/internal/admit"
	"ganc/internal/obs"
	"ganc/internal/serve"
)

// Serving re-exports: put any Engine behind the HTTP service boundary
// implemented in internal/serve — lazy per-user computation, a bounded LRU
// cache, in-flight request coalescing, batch lookups and atomic engine swaps.
type (
	// Server serves one Engine over HTTP.
	Server = serve.Server
	// ServerOption customizes a Server at construction time.
	ServerOption = serve.Option
	// ServerCacheStats reports the server's cache effectiveness counters.
	ServerCacheStats = serve.CacheStats
	// ShardIdentity names a server's place in a sharded cluster (shard id,
	// shard count, hash-ring epoch), reported through /info.
	ShardIdentity = serve.ShardIdentity
)

// NewServer builds an HTTP server around an Engine. The train set supplies
// the external↔internal identifier translation; n is the default list size.
func NewServer(train *Dataset, engine Engine, n int, opts ...ServerOption) (*Server, error) {
	return serve.New(train, engine, n, opts...)
}

// WithServerCacheCapacity bounds the server's per-user LRU cache (≤ 0
// disables caching).
func WithServerCacheCapacity(capacity int) ServerOption {
	return serve.WithCacheCapacity(capacity)
}

// WithServerShardIdentity marks the server as one shard of a cluster; the
// identity is echoed in /info and /health for router-side epoch checks.
func WithServerShardIdentity(id ShardIdentity) ServerOption {
	return serve.WithShardIdentity(id)
}

// Observability re-exports: the dependency-free metrics registry and
// structured request logging from internal/obs, and the admission middleware
// (per-client rate limiting + a concurrency cap with typed 429s) from
// internal/admit. DESIGN.md §11 documents the metric catalog and the
// admission semantics.
type (
	// MetricsRegistry collects counters, gauges and latency histograms and
	// renders them in the Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// MetricsLabel is one name=value label on a metric series.
	MetricsLabel = obs.Label
	// MetricsScrape is a parsed /metrics body (the validation helper's view).
	MetricsScrape = obs.Scrape
	// RequestLogger writes leveled JSON-line request records.
	RequestLogger = obs.RequestLogger
	// LogLevel grades request-log entries (LogDebug … LogError).
	LogLevel = obs.Level
	// AdmissionConfig tunes admission control: per-client rate limiting and
	// a concurrency cap in front of the serving routes. The zero value admits
	// everything.
	AdmissionConfig = admit.Config
	// AdmissionStats is a snapshot of a server's or router's admission
	// counters.
	AdmissionStats = admit.Stats
	// ServerHealth is the typed GET /health payload (status, shard, engine
	// version, admission counters).
	ServerHealth = serve.HealthResponse
)

// Request-log levels, least to most severe.
const (
	LogDebug = obs.LevelDebug
	LogInfo  = obs.LevelInfo
	LogWarn  = obs.LevelWarn
	LogError = obs.LevelError
)

// NewMetricsRegistry builds an empty metrics registry. Each server (or
// router) needs its own: series names are fixed, so two servers must not
// share one registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewRequestLogger logs JSON-line request records at or above min to w. A
// nil writer discards everything.
func NewRequestLogger(w io.Writer, min LogLevel) *RequestLogger {
	return obs.NewRequestLogger(w, min)
}

// ParseMetricsText strictly parses a Prometheus text-format exposition —
// the validation helper tests and CI use against GET /metrics bodies.
func ParseMetricsText(r io.Reader) (*MetricsScrape, error) { return obs.ParseText(r) }

// WithMetrics attaches a metrics registry to the server: engine, cache,
// ingestion and per-route HTTP series are registered on it and GET /metrics
// is mounted on the handler.
func WithMetrics(reg *MetricsRegistry) ServerOption { return serve.WithMetrics(reg) }

// WithRequestLog emits one structured JSON line per request (method, route,
// status, shard, duration, engine version, client key) to the logger.
func WithRequestLog(l *RequestLogger) ServerOption { return serve.WithRequestLog(l) }

// WithServerAdmission applies admission control in front of the serving
// routes: a per-client token bucket (clients keyed by the X-Client-ID header,
// falling back to the remote host) and a cap on requests inside handlers,
// where an over-capacity request waits up to MaxWait for a slot. A request
// that is not admitted gets a typed 429 with Retry-After. The zero
// configuration admits everything.
func WithServerAdmission(cfg AdmissionConfig) ServerOption {
	return serve.WithAdmission(cfg)
}
