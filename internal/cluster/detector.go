package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ganc/internal/obs"
	"ganc/internal/serve"
)

// RolePrimary and RoleReplica name a node's role in a detector liveness row.
const (
	RolePrimary = "primary"
	RoleReplica = "replica"
)

// NodeLiveness is one node's row in the detector's cached cluster view: the
// outcome of its most recent /health sample plus the suspicion state
// accumulated across samples.
type NodeLiveness struct {
	// Shard and Addr identify the node; Role is RolePrimary or RoleReplica.
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Role  string `json:"role"`
	// Alive reports whether the node answered its most recent probe with a
	// decodable /health document.
	Alive bool `json:"alive"`
	// Suspected rises after suspectAfter consecutive missed probes and falls
	// on the first successful one. A suspected primary is skipped by the
	// router's read path and, under auto-failover, triggers promotion.
	Suspected bool `json:"suspected"`
	// Misses is the current run of consecutive failed probes.
	Misses int `json:"misses"`
	// AppliedSeq and LagEvents echo the node's replication cursor from its
	// last successful probe (zero for nodes that report no replication
	// status). They are the freshness signal read failover selects by.
	AppliedSeq uint64 `json:"applied_seq"`
	LagEvents  uint64 `json:"lag_events"`
	// Error carries the probe failure when Alive is false.
	Error string `json:"error,omitempty"`
}

// DetectorConfig assembles a Detector.
type DetectorConfig struct {
	// Ring supplies the node set to sample. It is consulted every interval,
	// so promotions and reshards are picked up without restarting the
	// detector. Required.
	Ring func() *Ring
	// Interval is the sampling period (default 250ms).
	Interval time.Duration
	// OnSuspectPrimary, when set, fires (in its own goroutine) the first
	// time a shard's primary turns suspected, once per outage episode: the
	// latch re-arms when the primary answers a probe again or the shard's
	// primary address changes (a promotion installed a new primary). The
	// router hangs automatic promotion off this hook under
	// RouterConfig.AutoFailover.
	OnSuspectPrimary func(shard int, addr string)
	// Metrics, when set, registers the detector's probe and suspicion series.
	Metrics *obs.Registry

	// hop carries the probes: the router's, which owns it. Required; each
	// probe is bounded on its own.
	hop *hop
	// probeTimeout bounds one node's /health probe (default 1s), and
	// suspectAfter is the miss threshold (default suspectAfter); only the
	// package's tests change them.
	probeTimeout time.Duration
	suspectAfter int
}

// suspectAfter is how many consecutive missed probes turn a node suspected.
// With the default interval, suspicion takes ~750ms of sustained
// unreachability — long enough to ride out a GC pause, short enough that
// failover beats a client timeout.
const suspectAfter = 3

// Detector maintains a cached liveness view of every node in the ring by
// sampling /health on a fixed interval. Readers (the router's failover path,
// /health aggregation) consult the cached view and never probe inline. A
// Router over a replicated ring builds and owns one (NewRouter starts it,
// Router.Close stops it).
type Detector struct {
	ringFn       func() *Ring
	hop          *hop
	interval     time.Duration
	probeTimeout time.Duration
	suspectAfter int
	onSuspect    func(shard int, addr string)

	// view is one immutable sample generation — the rows by node address —
	// swapped in atomically.
	view atomic.Pointer[map[string]NodeLiveness]

	// misses and fired are touched only by the sampling goroutine: misses
	// holds consecutive-failure runs per address, fired the per-shard
	// one-shot latch for the suspicion callback (keyed by the primary
	// address it fired for, so a promotion re-arms it).
	misses map[string]int
	fired  map[int]string

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	dm *detectorMetrics
}

// detectorMetrics is the detector's instrument set (scalar: the node set is
// dynamic, so rows are not pre-sized per shard).
type detectorMetrics struct {
	probes    *obs.Counter
	failures  *obs.Counter
	live      *obs.Gauge
	suspected *obs.Gauge
}

func newDetectorMetrics(reg *obs.Registry) *detectorMetrics {
	return &detectorMetrics{
		probes: reg.Counter("ganc_detector_probes_total",
			"Node /health probes issued by the failure detector."),
		failures: reg.Counter("ganc_detector_probe_failures_total",
			"Detector probes that failed (unreachable node or undecodable /health)."),
		live: reg.Gauge("ganc_detector_live_nodes",
			"Nodes that answered their most recent detector probe."),
		suspected: reg.Gauge("ganc_detector_suspected_nodes",
			"Nodes past the consecutive-miss suspicion threshold."),
	}
}

// newDetector builds a detector without sampling; start begins the loop (the
// detector's own tests drive sample() synchronously instead).
func newDetector(cfg DetectorConfig) *Detector {
	d := &Detector{
		ringFn:       cfg.Ring,
		hop:          cfg.hop,
		interval:     cfg.Interval,
		probeTimeout: cfg.probeTimeout,
		suspectAfter: cfg.suspectAfter,
		onSuspect:    cfg.OnSuspectPrimary,
		misses:       make(map[string]int),
		fired:        make(map[int]string),
		stop:         make(chan struct{}),
	}
	if d.interval <= 0 {
		d.interval = 250 * time.Millisecond
	}
	if d.probeTimeout <= 0 {
		d.probeTimeout = time.Second
	}
	if d.suspectAfter <= 0 {
		d.suspectAfter = suspectAfter
	}
	if cfg.Metrics != nil {
		d.dm = newDetectorMetrics(cfg.Metrics)
	}
	return d
}

// start takes the first sample before returning — so the view covers every
// node of the ring from the first request on — and starts the sampling loop.
// Close stops the loop and waits for any in-flight suspicion callback.
func (d *Detector) start() {
	d.sample()
	d.wg.Add(1)
	go d.run()
}

// Close stops the sampling loop and waits for it — and for any suspicion
// callback it spawned — to finish. Safe to call more than once.
func (d *Detector) Close() {
	d.once.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// run is the sampling loop: one sample per interval.
func (d *Detector) run() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.sample()
		}
	}
}

// detectorNode is one sampling target resolved from the ring.
type detectorNode struct {
	shard int
	addr  string
	role  string
}

// nodes flattens the current ring into the sampling target list.
func (d *Detector) nodes() []detectorNode {
	ring := d.ringFn()
	var out []detectorNode
	for i := 0; i < ring.NumShards(); i++ {
		info := ring.Shard(i)
		out = append(out, detectorNode{shard: info.ID, addr: info.Addr, role: RolePrimary})
		for _, addr := range info.Replicas {
			out = append(out, detectorNode{shard: info.ID, addr: addr, role: RoleReplica})
		}
	}
	return out
}

// sample probes every node once, swaps in the new view, and fires the
// suspicion callback for primaries that just crossed the threshold. A
// malformed /health body marks the node dead for this sample — it never
// panics and never installs garbage cursors in the view (the hostile-input
// fuzz target pins this).
func (d *Detector) sample() {
	targets := d.nodes()
	if len(targets) == 0 {
		return
	}
	type outcome struct {
		health *serve.HealthResponse
		err    error
	}
	ctx, cancel := context.WithTimeout(context.Background(), d.probeTimeout)
	results := make([]outcome, len(targets))
	var pwg sync.WaitGroup
	for i, n := range targets {
		pwg.Add(1)
		go func(i int, addr string) {
			defer pwg.Done()
			health, err := probeHealth(ctx, d.hop, addr)
			results[i] = outcome{health, err}
		}(i, n.addr)
	}
	pwg.Wait()
	cancel()

	rows := make(map[string]NodeLiveness, len(targets))
	live, suspected := 0, 0
	for i, n := range targets {
		o := results[i]
		d.dm.probe(o.err != nil)
		row := NodeLiveness{Shard: n.shard, Addr: n.addr, Role: n.role}
		if o.err != nil {
			d.misses[n.addr]++
			row.Misses = d.misses[n.addr]
			row.Suspected = row.Misses >= d.suspectAfter
			row.Error = o.err.Error()
		} else {
			d.misses[n.addr] = 0
			row.Alive = true
			if repl := o.health.Replication; repl != nil {
				row.AppliedSeq, row.LagEvents = repl.AppliedSeq, repl.LagEvents
			}
		}
		if row.Alive {
			live++
		}
		if row.Suspected {
			suspected++
		}
		rows[n.addr] = row

		if n.role != RolePrimary {
			continue
		}
		// One-shot suspicion callback per outage episode: re-arm when the
		// primary answers again or a promotion changed the shard's primary.
		if firedAddr, ok := d.fired[n.shard]; ok && (row.Alive || firedAddr != n.addr) {
			delete(d.fired, n.shard)
		}
		if row.Suspected && d.fired[n.shard] == "" && d.onSuspect != nil {
			d.fired[n.shard] = n.addr
			d.wg.Add(1)
			go func(shard int, addr string) {
				defer d.wg.Done()
				d.onSuspect(shard, addr)
			}(n.shard, n.addr)
		}
	}
	// Prune miss counters for nodes that left the ring.
	for addr := range d.misses {
		if _, ok := rows[addr]; !ok {
			delete(d.misses, addr)
		}
	}
	d.view.Store(&rows)
	d.dm.levels(live, suspected)
}

// Node returns the cached liveness row for an address. ok is false when the
// detector has not sampled the address yet (a node a ring republish added
// since the last tick).
func (d *Detector) Node(addr string) (NodeLiveness, bool) {
	row, ok := d.rows()[addr]
	return row, ok
}

// rows returns the last sample's rows by address (nil before the first).
func (d *Detector) rows() map[string]NodeLiveness {
	if v := d.view.Load(); v != nil {
		return *v
	}
	return nil
}

// View returns the cached liveness rows sorted by shard, primary first —
// the /health detector section.
func (d *Detector) View() []NodeLiveness {
	rows := d.rows()
	if rows == nil {
		return nil
	}
	out := make([]NodeLiveness, 0, len(rows))
	for _, row := range rows {
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		if out[i].Role != out[j].Role {
			return out[i].Role == RolePrimary
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// FreshestReplica picks the best failover target among the given replica
// addresses from the cached view: alive, not suspected, lag within maxLag
// events, highest applied cursor. An address the view does not cover yet is
// not a candidate: unsampled means "no failover yet", never "probe inline".
func (d *Detector) FreshestReplica(replicas []string, maxLag uint64) (addr string, ok bool) {
	rows := d.rows()
	var best NodeLiveness
	for _, a := range replicas {
		row, present := rows[a]
		if !present || !row.Alive || row.Suspected || row.LagEvents > maxLag {
			continue
		}
		if !ok || row.AppliedSeq > best.AppliedSeq {
			best, ok = row, true
		}
	}
	return best.Addr, ok
}

// probeHealth fetches and decodes one node's /health without retries — the
// sampling loop's one probe, and the one parser the hostile-input fuzz
// target drives.
func probeHealth(ctx context.Context, h *hop, addr string) (*serve.HealthResponse, error) {
	status, body, err := exchange(ctx, h, http.MethodGet, addr, "/health", nil, maxShardResponse)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%w: node answered %d", ErrShardUnavailable, status)
	}
	var health serve.HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		return nil, fmt.Errorf("%w: decoding /health: %v", ErrShardResponse, err)
	}
	return &health, nil
}

// probe records one probe outcome.
func (dm *detectorMetrics) probe(failed bool) {
	if dm == nil {
		return
	}
	dm.probes.Inc()
	if failed {
		dm.failures.Inc()
	}
}

// levels records the live and suspected node counts of the latest sample.
func (dm *detectorMetrics) levels(live, suspected int) {
	if dm != nil {
		dm.live.Set(float64(live))
		dm.suspected.Set(float64(suspected))
	}
}
