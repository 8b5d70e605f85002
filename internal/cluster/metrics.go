package cluster

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"ganc/internal/admit"
	"ganc/internal/obs"
)

// routerMetrics is the router's instrument set: one row of per-shard series
// for every shard a ring of the router's has had, plus the cluster-scalar
// reshard series. The request path reads the rows without a lock — an
// atomic load, an index and an atomic add — so a reshard that adds shards
// swaps in a longer copy instead of appending in place.
type routerMetrics struct {
	reg  *obs.Registry
	mu   sync.Mutex // serializes grow
	rows atomic.Pointer[[]shardRow]

	reshardUsers   *obs.Counter
	reshardDouble  *obs.Counter
	reshardCutover *obs.Gauge
}

// shardRow is one shard's series.
type shardRow struct {
	fanout, retries, failures, failovers *obs.Counter
	mismatch, replag                     *obs.Gauge
}

// newRouterMetrics registers the router's families on reg, with rows for
// shards 0..shards-1.
func newRouterMetrics(reg *obs.Registry, shards int) *routerMetrics {
	rm := &routerMetrics{reg: reg}
	rm.rows.Store(new([]shardRow))
	rm.grow(shards)
	rm.reshardUsers = reg.Counter("ganc_router_reshard_users_migrated_total",
		"Users flipped to their new owner across all reshards this router has driven.")
	rm.reshardDouble = reg.Counter("ganc_router_reshard_double_dispatches_total",
		"Reads served from a user's old owner while the user's history was still migrating.")
	rm.reshardCutover = reg.Gauge("ganc_router_reshard_cutover_seconds",
		"Wall-clock width of the last reshard's transition window (begin to final ring publish).")
	return rm
}

// grow adds rows up to shards-1; rows already there are kept.
func (rm *routerMetrics) grow(shards int) {
	if rm == nil {
		return
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	old := *rm.rows.Load()
	if shards <= len(old) {
		return
	}
	rows := make([]shardRow, shards)
	copy(rows, old)
	for i := len(old); i < shards; i++ {
		label := obs.L("shard", strconv.Itoa(i))
		rows[i] = shardRow{
			fanout: rm.reg.Counter("ganc_router_fanout_total",
				"Shard calls issued by the router (one per logical call, retries excluded).", label),
			retries: rm.reg.Counter("ganc_router_retries_total",
				"Retry attempts beyond the first call per shard.", label),
			failures: rm.reg.Counter("ganc_router_shard_failures_total",
				"Shard calls that exhausted the retry budget.", label),
			mismatch: rm.reg.Gauge("ganc_router_epoch_mismatch",
				"1 when the shard's snapshot was cut for a different ring epoch or shard count (0 otherwise).", label),
			failovers: rm.reg.Counter("ganc_router_failovers_total",
				"Reads served by a replica after the shard's primary exhausted its retry budget.", label),
			replag: rm.reg.Gauge("ganc_router_replica_lag_events",
				"Widest replica lag in committed events for the shard, as of the last /health aggregation.", label),
		}
	}
	rm.rows.Store(&rows)
}

// row returns shard's series, or nil when the router records none for it.
func (rm *routerMetrics) row(shard int) *shardRow {
	if rm == nil {
		return nil
	}
	rows := *rm.rows.Load()
	if shard < 0 || shard >= len(rows) {
		return nil
	}
	return &rows[shard]
}

// userFlipped records one user cut over to its new owner during a reshard.
func (rm *routerMetrics) userFlipped() {
	if rm != nil {
		rm.reshardUsers.Inc()
	}
}

// doubleDispatch records one read routed to a user's old owner mid-reshard.
func (rm *routerMetrics) doubleDispatch() {
	if rm != nil {
		rm.reshardDouble.Inc()
	}
}

// cutover records the last reshard's transition-window width.
func (rm *routerMetrics) cutover(seconds float64) {
	if rm != nil {
		rm.reshardCutover.Set(seconds)
	}
}

// call records one logical shard call.
func (rm *routerMetrics) call(shard int) {
	if r := rm.row(shard); r != nil {
		r.fanout.Inc()
	}
}

// retry records one retry attempt against a shard.
func (rm *routerMetrics) retry(shard int) {
	if r := rm.row(shard); r != nil {
		r.retries.Inc()
	}
}

// failure records a shard call that exhausted its retry budget.
func (rm *routerMetrics) failure(shard int) {
	if r := rm.row(shard); r != nil {
		r.failures.Inc()
	}
}

// failover records one read served by a replica after primary failure.
func (rm *routerMetrics) failover(shard int) {
	if r := rm.row(shard); r != nil {
		r.failovers.Inc()
	}
}

// replicaLag records the widest replica lag observed for a shard.
func (rm *routerMetrics) replicaLag(shard int, lag uint64) {
	if r := rm.row(shard); r != nil {
		r.replag.Set(float64(lag))
	}
}

// epochMismatch records a probe's epoch verdict for a shard.
func (rm *routerMetrics) epochMismatch(shard int, mismatched bool) {
	r := rm.row(shard)
	if r == nil {
		return
	}
	v := 0.0
	if mismatched {
		v = 1.0
	}
	r.mismatch.Set(v)
}

// requestMeta supplies the router's request-log fields: no serving shard or
// engine version (the router is stateless), just the admission client key.
func (rt *Router) requestMeta(r *http.Request) (*int, int, string) {
	return nil, 0, rt.admission.ClientKey(r)
}

// ShardAdmission is one shard's admission row in the router's aggregated
// /health answer: how much the shard is shedding and how saturated its
// concurrency cap is, as reported by the shard's own /health endpoint.
type ShardAdmission struct {
	// Shard is the shard number.
	Shard int `json:"shard"`
	// Stats is the shard's admission snapshot.
	admit.Stats
	// Shed is RateLimited + OverCapacity, precomputed for dashboards.
	Shed int64 `json:"shed"`
}
