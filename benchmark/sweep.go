package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"ganc"
	"ganc/internal/linalg"
)

// quality is the paper's Table III metric set at N, as ganc.NewEvaluator
// computes it.
type quality struct {
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	FMeasure   float64 `json:"f_measure"`
	LTAccuracy float64 `json:"lt_accuracy"`
	Coverage   float64 `json:"coverage"`
	Gini       float64 `json:"gini"`
}

func (q quality) fields() map[string]float64 {
	return map[string]float64{"precision": q.Precision, "recall": q.Recall, "f_measure": q.FMeasure,
		"lt_accuracy": q.LTAccuracy, "coverage": q.Coverage, "gini": q.Gini}
}

// goldenSet pins sweep_batch's quality for one scale: exactly (1e-3) for the
// seeds recorded, and within [Lo, Hi] for any other seed — universes of one
// shape differ little, so a sweep that broke shows on every seed.
type goldenSet struct {
	Seeds map[string]quality `json:"seeds"`
	Lo    quality            `json:"lo"`
	Hi    quality            `json:"hi"`
}

//go:embed golden.json
var goldenJSON []byte

const goldenTolerance = 1e-3

func checkQuality(res *runResult, scaleName string, seed int64, got quality) error {
	var all map[string]goldenSet
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[scaleName]
	if !ok {
		return fmt.Errorf("golden.json has no entry for scale %q", scaleName)
	}
	gf := got.fields()
	if want, ok := g.Seeds[strconv.FormatInt(seed, 10)]; ok {
		for name, w := range want.fields() {
			if math.Abs(gf[name]-w) > goldenTolerance {
				res.problemf("quality %s = %.6f, golden for seed %d is %.6f (tolerance %g)", name, gf[name], seed, w, goldenTolerance)
			}
		}
		return nil
	}
	lo, hi := g.Lo.fields(), g.Hi.fields()
	for name, v := range gf {
		if v < lo[name] || v > hi[name] {
			res.problemf("quality %s = %.6f outside the band [%.6f, %.6f] every seed falls in", name, v, lo[name], hi[name])
		}
	}
	return nil
}

// checkLists verifies that a full collection gives every user exactly N
// distinct items, none of which the user already rated.
func checkLists(res *runResult, train *ganc.Dataset, recs ganc.Recommendations) {
	if len(recs) != train.NumUsers() {
		res.problemf("RecommendAll answered %d users of %d", len(recs), train.NumUsers())
	}
	bad := 0
	for u, set := range recs {
		rated := train.UserItemsSorted(u)
		seen := make(map[ganc.ItemID]struct{}, len(set))
		ok := len(set) == topN
		for _, i := range set {
			if _, dup := seen[i]; dup {
				ok = false
			}
			seen[i] = struct{}{}
			if k := sort.Search(len(rated), func(k int) bool { return rated[k] >= i }); k < len(rated) && rated[k] == i {
				ok = false
			}
		}
		if !ok {
			bad++
		}
	}
	if bad > 0 {
		res.problemf("%d users' lists are not %d distinct unrated items", bad, topN)
	}
}

func sameLists(a, b ganc.Recommendations) bool {
	if len(a) != len(b) {
		return false
	}
	for u, x := range a {
		y := b[u]
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if x[k] != y[k] {
				return false
			}
		}
	}
	return true
}

// runSweepBatch is the offline paper protocol with no HTTP: split, train,
// one RecommendAll per pass over every user (the batch path), then serial
// RecommendUser calls (the online snapshot path). Both use core, two ways.
func runSweepBatch(cfg runConfig) (*runResult, error) {
	res := newResult()
	m := res.metrics
	ctx := context.Background()

	// Set-up: everything up to a pipeline that can answer.
	repeats := cfg.setupRepeats()
	var setups []time.Duration // at nominal speed
	setup := newLaps()
	var tr *trained
	var pipe *ganc.Pipeline
	var err error
	for i := 0; i < repeats; i++ {
		setup.begin()
		if tr, err = trainModel(cfg.sc, cfg.seed, true, setup); err != nil {
			return nil, err
		}
		if pipe, err = tr.newPipeline(cfg.sc, cfg.seed); err != nil {
			return nil, err
		}
		setup.lap()
		setups = append(setups, setup.nominal)
	}
	cfg.logf("set up %d×: %s on %d users × %d items, %d train ratings",
		repeats, pipe.Name(), tr.train.NumUsers(), tr.train.NumItems(), tr.train.NumRatings())

	var t *tracer
	if cfg.traced {
		t = newTracer()
		t.on.Store(true)
	}
	numUsers := tr.train.NumUsers()
	before := readProc()

	// Batch part, two thirds of the window: whole-collection passes, each on a fresh Dyn state so every
	// pass does the same work and must give the same answer; the reference
	// work is timed between them.
	var first ganc.Recommendations
	var passes []block
	watch := newStopwatch(3)
	for pass := 0; pass == 0 || time.Since(before.at) < 2*cfg.window/3; pass++ {
		if pass > 0 {
			if pipe, err = tr.newPipeline(cfg.sc, cfg.seed); err != nil {
				return nil, err
			}
		}
		a := readProc()
		recs, err := pipe.RecommendAll(ctx)
		if err != nil {
			return nil, err
		}
		b := readProc()
		if t != nil {
			t.add(t.newID(), 0, 0, "core.recommend_all", a.at, b.at)
		}
		length := b.at.Sub(a.at)
		passes = append(passes, block{stretch: watch.stretch(length, a.cpu(b)), ops: numUsers, heavy: []time.Duration{length}})
		if pass == 0 {
			first = recs
			m["core.recommend_all_busy_s"] = a.cpu(b).Seconds()
			m["core.allocs_per_user_batch"] = float64(b.mallocs-a.mallocs) / float64(numUsers)
		} else if !sameLists(first, recs) {
			res.problemf("RecommendAll pass %d differs from pass 0 on identical inputs", pass)
		}
	}
	res.attempted += len(passes) * numUsers

	// Online part: serial per-user calls against the frozen snapshot the last
	// pass left, users drawn from the seeded Zipf request stream, in blocks of
	// blockReads calls with the reference work timed between them.
	reqs := tr.universe.RequestStream(ganc.RequestStreamConfig{ZipfExponent: requestZipf, Seed: cfg.seed + 1})
	users := tr.train.UserInterner()
	watch = newStopwatch(1)
	online := func(until time.Time, traced bool) ([]block, error) {
		var blocks []block
		for len(blocks) == 0 || time.Now().Before(until) {
			b := block{ops: cfg.sc.blockReads}
			from := readCPUTick()
			for n := 0; n < cfg.sc.blockReads; n++ {
				key := reqs.NextUser()
				idx, ok := users.Lookup(key)
				if !ok {
					return nil, fmt.Errorf("request stream produced unknown user %q", key)
				}
				t0 := time.Now()
				set, err := pipe.RecommendUser(ctx, ganc.UserID(idx), topN)
				t1 := time.Now()
				res.attempted++
				if err != nil || len(set) != topN {
					res.failed++
					res.problemf("RecommendUser(%s): %d items, err %v", key, len(set), err)
					continue
				}
				if traced {
					t.add(t.newID(), 0, 0, "core.recommend_user", t0, t1)
				}
				b.reads = append(b.reads, t1.Sub(t0))
			}
			to := readCPUTick()
			b.stretch = watch.stretch(to.at.Sub(from.at), to.cpu-from.cpu)
			blocks = append(blocks, b)
		}
		return blocks, nil
	}
	end := before.at.Add(cfg.window)
	var untraced []block
	if cfg.traced {
		// Untraced first half of what is left, traced second half: their
		// means differ by the span recording's cost.
		if untraced, err = online(time.Now().Add(time.Until(end)/2), false); err != nil {
			return nil, err
		}
	}
	calls, err := online(end, cfg.traced)
	if err != nil {
		return nil, err
	}
	after := readProc()

	if cfg.traced {
		t.on.Store(false)
		res.spans = t.snapshot()
		probeKernels(cfg, tr, pipe, m)
	}

	// Gated: every pass and every block of calls, at nominal box speed.
	m["setup_s"] = medianDuration(setups).Seconds()
	tr.layerMetrics(m)
	if ref := pool(untraced).reads; ref.mean > 0 {
		m["bench.trace_overhead_pct"] = 100 * (float64(pool(calls).reads.mean) - float64(ref.mean)) / float64(ref.mean)
	}
	blocks := append(untraced, calls...)
	batch, serial := pool(passes), pool(blocks)
	var raw []time.Duration
	for _, b := range blocks {
		raw = append(raw, b.reads...)
	}
	whole := summarize(raw)
	var passTime time.Duration
	for _, p := range passes {
		passTime += p.length
	}
	ops := len(passes)*numUsers + whole.count
	m["throughput_ops"] = batch.rate
	m["heavy_p50_ms"] = ms(batch.heavy.p50)
	m["read_p50_ms"] = ms(serial.reads.p50)
	m["cpu_us_per_op"] = batch.cpuPerOp
	// The same passes and calls as the clock showed them.
	m["sweep_users_per_s"] = float64(len(passes)*numUsers) / passTime.Seconds()
	m["online_user_us"] = us(whole.p50)
	m["read_p50_raw_ms"] = ms(whole.p50)
	m["read_p99_ms"] = ms(whole.tail(0.99))
	m["read_max_ms"] = ms(whole.max())
	m["bench.box_speed"] = (batch.speed + serial.speed) / 2
	windowMetrics(m, before, after, ops)
	if cfg.traced {
		m["core.sweep_self_us"] = m["online_user_us"] - m["mf.score_user_us"]
	}
	cfg.logf("set-up %.3fs, %d RecommendAll passes (%.0f users/s), %d RecommendUser calls (p50 %.1fus); raw: %.0f users/s, p50 %.1fus p99 %.1fus; box speed %.2f",
		m["setup_s"], len(passes), m["throughput_ops"], whole.count, 1e3*m["read_p50_ms"], m["sweep_users_per_s"], m["online_user_us"], 1e3*m["read_p99_ms"], m["bench.box_speed"])

	// Output checks.
	checkLists(res, tr.train, first)
	rep := ganc.NewEvaluator(tr.split, 0).Evaluate(pipe.Name(), first, topN)
	q := quality{Precision: rep.Precision, Recall: rep.Recall, FMeasure: rep.FMeasure,
		LTAccuracy: rep.LTAccuracy, Coverage: rep.Coverage, Gini: rep.Gini}
	if qj, err := json.Marshal(q); err == nil {
		cfg.logf("quality@%d: %s", topN, qj)
	}
	if err := checkQuality(res, cfg.sc.name, cfg.seed, q); err != nil {
		return nil, err
	}
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return res, nil
}

// probeKernels times the two layers under the sweep by calling their public
// functions directly: the dot kernel at the trained factor dimension, and the
// bulk scorer over one user's full candidate list.
func probeKernels(cfg runConfig, tr *trained, pipe *ganc.Pipeline, m map[string]float64) {
	ctx := context.Background()
	n := cfg.sc.probeCalls
	if rsvd, ok := tr.scorer.(*ganc.RSVD); ok {
		dim := rsvd.Factors()
		a, b := make([]float32, dim), make([]float32, dim)
		for k := range a {
			a[k], b[k] = float32(k%7)*0.25, float32(k%5)*0.5
		}
		dots := 10000 * n
		var sink float32
		t0 := time.Now()
		for k := 0; k < dots; k++ {
			sink += linalg.Dot32x8(a, b)
		}
		m["linalg.dot32x8_ns"] = float64(time.Since(t0)) / float64(dots)
		runtime.KeepAlive(sink)
	}
	if bulk, ok := tr.scorer.(ganc.BulkScorer32); ok {
		var cand []ganc.ItemID
		var out []float32
		var scoring time.Duration
		for u := 0; u < n; u++ {
			uid := ganc.UserID(u % tr.train.NumUsers())
			cand = tr.train.AppendCandidates(uid, cand[:0])
			if cap(out) < len(cand) {
				out = make([]float32, len(cand))
			}
			t0 := time.Now()
			bulk.ScoreUser32(uid, cand, out[:len(cand)])
			scoring += time.Since(t0)
		}
		m["mf.score_user_us"] = us(scoring) / float64(n)
	}

	// Exact allocation count of the online path: single goroutine, cumulative
	// malloc counter, so GC timing does not enter.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for u := 0; u < n; u++ {
		_, _ = pipe.RecommendUser(ctx, ganc.UserID(u%tr.train.NumUsers()), topN) // errors were checked in the window
	}
	runtime.ReadMemStats(&ms1)
	m["core.allocs_per_user_online"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
}
