package core

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// parallelSplit builds a compact split for the concurrency tests.
func parallelSplit(t *testing.T) *dataset.Split {
	t.Helper()
	cfg := synth.ML100K(0.1)
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.SplitByUser(0.8, rand.New(rand.NewSource(51)))
}

func collectionsEqual(a, b types.Recommendations) bool {
	if len(a) != len(b) {
		return false
	}
	for u, setA := range a {
		setB, ok := b[u]
		if !ok || len(setA) != len(setB) {
			return false
		}
		for k := range setA {
			if setA[k] != setB[k] {
				return false
			}
		}
	}
	return true
}

// TestForEachShardCoversExactly: the ranges handed to the workers tile
// [0, count) with no gap, overlap or empty range, for any worker count.
func TestForEachShardCoversExactly(t *testing.T) {
	for count := 0; count <= 40; count++ {
		for workers := 0; workers <= 9; workers++ {
			g := &GANC{cfg: Config{Workers: workers}}
			var mu sync.Mutex
			var ranges [][2]int
			g.forEachShard(count, func(lo, hi int) {
				mu.Lock()
				ranges = append(ranges, [2]int{lo, hi})
				mu.Unlock()
			})
			sort.Slice(ranges, func(a, b int) bool { return ranges[a][0] < ranges[b][0] })
			next := 0
			for _, r := range ranges {
				if r[0] != next || (r[1] <= r[0] && count > 0) {
					t.Fatalf("count=%d workers=%d: bad range %v in %v", count, workers, r, ranges)
				}
				next = r[1]
			}
			if next != count {
				t.Fatalf("count=%d workers=%d: ranges %v cover [0,%d)", count, workers, ranges, next)
			}
		}
	}
}

func TestParallelStatCoverageMatchesSequential(t *testing.T) {
	sp := parallelSplit(t)
	train := sp.Train
	prefs, err := longtail.Estimate(longtail.ModelTFIDF, train, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) types.Recommendations {
		g, err := New(train, NewPopAccuracy(train, 5), prefs, NewStatCoverage(train),
			Config{N: 5, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g.Recommend()
	}
	seq := run(1)
	par := run(8)
	if !collectionsEqual(seq, par) {
		t.Fatal("parallel Stat-coverage run differs from the sequential run")
	}
}

func TestParallelOSLGOutOfSampleMatchesSequential(t *testing.T) {
	sp := parallelSplit(t)
	train := sp.Train
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) types.Recommendations {
		g, err := New(train, NewPopAccuracy(train, 5), prefs, NewDynCoverage(train.NumItems()),
			Config{N: 5, SampleSize: train.NumUsers() / 4, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g.Recommend()
	}
	seq := run(0)
	par := run(16)
	if !collectionsEqual(seq, par) {
		t.Fatal("parallel OSLG out-of-sample phase differs from the sequential phase")
	}
}

func TestParallelWorkersClampedAboveCPUCount(t *testing.T) {
	sp := parallelSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)
	g, err := New(train, NewPopAccuracy(train, 3), prefs, NewStatCoverage(train),
		Config{N: 3, Seed: 1, Workers: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Recommend()
	if len(recs) != train.NumUsers() {
		t.Fatal("huge worker count broke the sweep")
	}
}

// TestWorkersClampedToGOMAXPROCS: the worker count follows the Ps the process
// may run on, not the machine's CPU count. With one P a configured Workers of
// 4 runs the phase inline as one range — no goroutines to time-slice, no
// second scratch — and the collection is the sequential one.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := &GANC{cfg: Config{Workers: 4}}
	var ranges [][2]int
	g.forEachShard(10, func(lo, hi int) { ranges = append(ranges, [2]int{lo, hi}) })
	if len(ranges) != 1 || ranges[0] != [2]int{0, 10} {
		t.Fatalf("with GOMAXPROCS(1), Workers=4 ran ranges %v, want the single inline range [0 10]", ranges)
	}

	sp := parallelSplit(t)
	train := sp.Train
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) types.Recommendations {
		g, err := New(train, NewPopAccuracy(train, 5), prefs, NewDynCoverage(train.NumItems()),
			Config{N: 5, SampleSize: train.NumUsers() / 4, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g.Recommend()
	}
	if !collectionsEqual(run(1), run(4)) {
		t.Fatal("Workers=4 under GOMAXPROCS(1) differs from the sequential run")
	}
}

func TestParallelRandCoverageProducesCompleteCollection(t *testing.T) {
	// Rand's scores are draws from one shared rng, consumed in the order users
	// are swept in, so a sharded sweep would answer differently per schedule:
	// it sweeps on one worker, and Workers=8 gives the Workers=1 collection.
	// GOMAXPROCS is raised so the worker count is not clamped to 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sp := parallelSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.7)
	run := func(workers int) types.Recommendations {
		g, err := New(train, NewPopAccuracy(train, 5), prefs, NewRandCoverage(3),
			Config{N: 5, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g.Recommend()
	}
	recs := run(8)
	if !collectionsEqual(recs, run(1)) {
		t.Fatal("Workers=8 under Rand coverage differs from the sequential run")
	}
	if len(recs) != train.NumUsers() {
		t.Fatalf("got %d users, want %d", len(recs), train.NumUsers())
	}
	for u, set := range recs {
		if len(set) != 5 {
			t.Fatalf("user %d got %d items", u, len(set))
		}
		trainItems := train.UserItemSet(u)
		for _, i := range set {
			if _, bad := trainItems[i]; bad {
				t.Fatalf("user %d recommended a train item", u)
			}
		}
	}
}
