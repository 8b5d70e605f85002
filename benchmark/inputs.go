package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"ganc"
	"ganc/internal/longtail"
)

// scale fixes the input sizes. Every commit runs the same scale, so a metric
// compares across commits; it does not compare across scales.
type scale struct {
	name                  string
	users, items, ratings int
	// sampleSize is OSLG's sequential sample; the remaining users are swept
	// in parallel, which is where WithWorkers(nproc) applies.
	sampleSize int
	// setupRepeats is how many times an untraced run sets the system up; the
	// median is setup_s.
	setupRepeats int
	// checkpointEvery is serve_mixed's WithIngestCheckpoint interval, in events.
	checkpointEvery int
	// mixedCache is the per-node LRU of the two mixed workloads (smaller than
	// the user population); hotCache that of cluster_hot (larger than it).
	mixedCache, hotCache int
	// warmRequests is the mixed workloads' read-only warm-up length.
	warmRequests int
	// sampledChecks is how many users the post-window equality checks visit.
	sampledChecks int
	// probeCalls sizes the traced run's direct-call probes.
	probeCalls int
	// blockReads is how many reads one block of a window holds: a thousand,
	// so that a block supports a p99.
	blockReads int
}

// fullScale is what BENCHMARK.json runs: the "loadgen" universe's shape
// (Zipf 1.1, 10 ratings per user) at a fifth of its users and ratings, which
// is what fits the driver's budget of 92 runs in 57 minutes with set-up
// repeated three times per run (README.md, "Deviations").
var fullScale = scale{
	name: "full", users: 20000, items: 4000, ratings: 200000,
	sampleSize: 500, setupRepeats: 3, checkpointEvery: 2000,
	mixedCache: 8192, hotCache: 65536,
	warmRequests: 300, sampledChecks: 200, probeCalls: 200, blockReads: 1000,
}

// smokeScale is the harness self-test's: every code path, no meaningful
// timing.
var smokeScale = scale{
	name: "smoke", users: 2000, items: 500, ratings: 40000,
	sampleSize: 100, setupRepeats: 2, checkpointEvery: 300,
	mixedCache: 512, hotCache: 65536,
	warmRequests: 20, sampledChecks: 40, probeCalls: 10, blockReads: 40,
}

const (
	topN            = 10
	batchUsers      = 20
	ingestEvents    = 20
	requestZipf     = 1.0
	universeZipf    = 1.1
	trainSplitKappa = 0.8
)

// workers is the parallelism handed to the program (WithWorkers). The box
// has two cores; more would only measure the scheduler.
const workers = 2

// trained is everything one training run yields, with the layer timings
// taken around the calls.
type trained struct {
	universe *ganc.Universe
	train    *ganc.Dataset // what the model was trained on
	split    *ganc.Split   // nil when trained on the full universe
	scorer   ganc.Scorer
	prefs    *ganc.Preferences

	universeTime, trainTime, estimateTime time.Duration
}

// trainModel generates the seeded universe and trains RSVD + θ^T on it: on
// the 80 % side of a per-user split (the paper's protocol, sweep_batch) or on
// all of it (what a serving node loads). Each stage is a lap of the set-up.
func trainModel(sc scale, seed int64, withSplit bool, l *laps) (*trained, error) {
	t0 := time.Now()
	u, err := ganc.NewUniverse(ganc.UniverseConfig{
		Name: "loadgen", Users: sc.users, Items: sc.items, Ratings: sc.ratings,
		ZipfExponent: universeZipf, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	tr := &trained{universe: u, train: u.Train(), universeTime: time.Since(t0)}
	l.lap()
	if withSplit {
		tr.split = ganc.SplitByUser(u.Train(), trainSplitKappa, rand.New(rand.NewSource(seed)))
		tr.train = tr.split.Train
	}
	t0 = time.Now()
	if tr.scorer, err = ganc.NewBaseScorer("RSVD", tr.train, seed); err != nil {
		return nil, err
	}
	tr.trainTime = time.Since(t0)
	l.lap()
	t0 = time.Now()
	if tr.prefs, err = longtail.Estimate(ganc.PreferenceTFIDF, tr.train, nil, 0.5, seed); err != nil {
		return nil, err
	}
	tr.estimateTime = time.Since(t0)
	l.lap()
	return tr, nil
}

// newPipeline assembles GANC(RSVD, θ^T, Dyn) at the f32 tier around the
// trained parts, with a fresh (all-zero) Dyn state.
func (tr *trained) newPipeline(sc scale, seed int64) (*ganc.Pipeline, error) {
	return ganc.NewPipeline(tr.train,
		ganc.WithBase(tr.scorer),
		ganc.WithPreferenceVector(tr.prefs),
		ganc.WithCoverage(ganc.CoverageDyn()),
		ganc.WithTopN(topN),
		ganc.WithSampleSize(sc.sampleSize),
		ganc.WithWorkers(workers),
		ganc.WithSeed(seed),
		ganc.WithScoringPrecision(ganc.PrecisionF32))
}

// layerMetrics reports the training-side layer timings.
func (tr *trained) layerMetrics(m map[string]float64) {
	m["synth.universe_s"] = tr.universeTime.Seconds()
	m["mf.train_s"] = tr.trainTime.Seconds()
	m["longtail.estimate_s"] = tr.estimateTime.Seconds()
}

// workDir creates the run's scratch directory inside the checkout (WAL,
// snapshots, cluster state), so fsync hits the checkout's filesystem.
func workDir(outDir, workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "work-"+workload+"-")
	if err != nil {
		return "", fmt.Errorf("work directory: %w", err)
	}
	return dir, nil
}

func fileMB(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size()) / (1 << 20)
}
