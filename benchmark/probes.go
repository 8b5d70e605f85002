package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"time"

	"ganc"
	"ganc/internal/ingest"
)

// The probes run after the traced window, on the system it left behind. Each
// calls one layer's public function directly, so the layer's cost is read
// without the layers above it.

// timedGets issues the GETs serially on one connection and returns the mean
// client-observed latency.
func timedGets(c *http.Client, urls []string) (time.Duration, error) {
	var sum time.Duration
	for _, u := range urls {
		t0 := time.Now()
		resp, err := c.Get(u)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		sum += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
		}
	}
	return sum / time.Duration(len(urls)), nil
}

// handlerMeanDuring runs fn and returns the mean the servers at bases
// recorded for the route while it ran (Δsum/Δcount of their histograms).
func handlerMeanDuring(c *http.Client, bases []string, route string, fn func() error) (time.Duration, error) {
	tgt := target{nodes: bases}
	m0, err := tgt.scrape(c)
	if err != nil {
		return 0, err
	}
	if err := fn(); err != nil {
		return 0, err
	}
	m1, err := tgt.scrape(c)
	if err != nil {
		return 0, err
	}
	w := &window{m0: m0, m1: m1}
	mean, _ := histMean(w.nodeDelta, routeHist, label("route", route))
	return time.Duration(mean * float64(time.Second)), nil
}

// probeNode takes the single node's layer numbers that need direct calls.
// It mutates the node (applies events, swaps engines, checkpoints), so it
// runs last, on the node the recovery check rebuilt.
func probeNode(cfg runConfig, u *ganc.Universe, n *node, dir string, m map[string]float64) error {
	ctx := context.Background()
	calls := cfg.sc.probeCalls
	c := newHTTPClient()
	defer c.CloseIdleConnections()

	// What a request costs before any handler work: a trivial route's client
	// latency minus the time its handler recorded.
	health := make([]string, calls)
	for k := range health {
		health[k] = n.base + "/health"
	}
	var healthRTT time.Duration
	healthHandler, err := handlerMeanDuring(c, []string{n.base}, "/health", func() (err error) {
		healthRTT, err = timedGets(c, health)
		return err
	})
	if err != nil {
		return err
	}
	m["bench.http_floor_us"] = us(healthRTT - healthHandler)

	// Swap alone: publishing an engine the server already has.
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		if err := n.srv.Update(n.pipe); err != nil {
			return err
		}
	}
	m["serve.update_us"] = us(time.Since(t0)) / float64(calls)

	// WAL alone: the same batches appended (and fsynced) to a scratch log
	// beside the node's own.
	evs := u.EventStream(ganc.EventStreamConfig{Seed: cfg.seed + 31})
	log, err := ingest.OpenLog(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	batches := make([][]ganc.IngestEvent, calls)
	appends := make([]time.Duration, calls)
	for k := range batches {
		batches[k] = evs.NextBatch(ingestEvents)
		t0 := time.Now()
		if _, err := log.Append(batches[k]); err != nil {
			_ = log.Close() // the append error is the one to report
			return err
		}
		appends[k] = time.Since(t0)
	}
	if err := log.Close(); err != nil {
		return err
	}
	m["ingest.wal_append_ms"] = ms(medianDuration(appends))

	// The whole write path without HTTP. Medians, so the applies that also
	// checkpoint fall out; the checkpoint is timed on its own below. The last
	// apply republishes the node's true state after the swap probe above.
	applies := make([]time.Duration, calls)
	for k, batch := range batches {
		t0 := time.Now()
		if _, err := n.ing.Apply(ctx, batch); err != nil {
			return err
		}
		applies[k] = time.Since(t0)
	}
	m["ingest.apply_ms"] = ms(medianDuration(applies))
	m["ingest.rebuild_swap_ms"] = m["ingest.apply_ms"] - m["ingest.wal_append_ms"]

	var checkpoints []time.Duration
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		if err := n.ing.Checkpoint(); err != nil {
			return err
		}
		checkpoints = append(checkpoints, time.Since(t0))
	}
	m["ingest.checkpoint_ms"] = ms(medianDuration(checkpoints))
	m["ingest.checkpoint_mb"] = fileMB(n.snapPath)
	return nil
}

// probeCluster re-sends one set of users twice, through the router and
// straight to each user's owner shard, on one connection each. The difference
// is what the router tier costs a read; the direct pass also yields the cost
// of one loopback HTTP hop (client latency minus the shard's handler time),
// which is what the client↔router gap is checked against.
func probeCluster(cfg runConfig, u *ganc.Universe, tr *tier, m map[string]float64) error {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	users := sampleUsers(u, cfg.sc.probeCalls, cfg.seed+13)
	routed, direct := make([]string, len(users)), make([]string, len(users))
	for k, user := range users {
		q := "/recommend?user=" + url.QueryEscape(user)
		routed[k] = tr.base + q
		direct[k] = tr.shardBase(tr.c.OwnerShard(user)) + q
	}

	// Unmeasured pass first, so both measured passes find the lists cached.
	if _, err := timedGets(c, direct); err != nil {
		return err
	}
	var directRTT, routedRTT time.Duration
	shardHandler, err := handlerMeanDuring(c, tr.target().nodes, "/recommend", func() (err error) {
		directRTT, err = timedGets(c, direct)
		return err
	})
	if err != nil {
		return err
	}
	routerHandler, err := handlerMeanDuring(c, []string{tr.base}, "/recommend", func() (err error) {
		routedRTT, err = timedGets(c, routed)
		return err
	})
	if err != nil {
		return err
	}
	floor := us(directRTT - shardHandler)
	m["cluster.direct_shard_us"] = us(directRTT)
	m["cluster.routed_minus_direct_us"] = us(routedRTT - directRTT)
	m["bench.http_floor_us"] = floor
	m["bench.unattributed_us"] = us(routedRTT-routerHandler) - floor
	return nil
}
