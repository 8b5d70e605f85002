package core

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/recommender"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// testSplit builds a small synthetic split shared by the GANC tests.
func testSplit(t *testing.T) *dataset.Split {
	t.Helper()
	cfg := synth.ML100K(0.15)
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d.SplitByUser(0.8, rand.New(rand.NewSource(21)))
}

// popArec builds the Pop accuracy recommender used in most tests (cheap and
// deterministic).
func popArec(train *dataset.Dataset, n int) *PopAccuracy {
	return NewPopAccuracyWith(recommender.NewPop(train), train, n)
}

func TestConfigValidate(t *testing.T) {
	bad := Config{N: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("N=0 did not error")
	}
	good := Config{N: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsMissingComponentsAndMismatchedPreferences(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)
	arec := popArec(train, 5)
	crec := NewStatCoverage(train)

	if _, err := New(nil, arec, prefs, crec, Config{N: 5}); err == nil {
		t.Fatal("nil train did not error")
	}
	if _, err := New(train, nil, prefs, crec, Config{N: 5}); err == nil {
		t.Fatal("nil accuracy recommender did not error")
	}
	if _, err := New(train, arec, nil, crec, Config{N: 5}); err == nil {
		t.Fatal("nil preferences did not error")
	}
	if _, err := New(train, arec, prefs, nil, Config{N: 5}); err == nil {
		t.Fatal("nil coverage recommender did not error")
	}
	short := longtail.Constant(3, 0.5)
	if _, err := New(train, arec, short, crec, Config{N: 5}); err == nil {
		t.Fatal("mismatched preference length did not error")
	}
	if _, err := New(train, arec, prefs, crec, Config{N: 0}); err == nil {
		t.Fatal("invalid config did not error")
	}
	// A Dyn vector of another length than the catalog: the sweep would treat
	// an item outside it as never recommended, CoverageScore as worthless.
	for _, dyn := range []*DynCoverage{
		NewDynCoverage(train.NumItems() - 1),
		NewDynCoverageFrom(make([]int, train.NumItems()+1)),
	} {
		if _, err := New(train, arec, prefs, dyn, Config{N: 5}); err == nil {
			t.Fatalf("Dyn coverage over %d items accepted for a %d-item train set", dyn.NumItems(), train.NumItems())
		}
	}
}

// TestFullySequentialPassKeepsNoSnapshots pins the default configuration's
// allocation: with no out-of-sample phase nothing reads a frequency snapshot,
// so a pass must not take one per user — |U|·|I| ints, 8 GB at the paper's
// scale. What a pass does allocate per user (the top-N set, the selection
// heap) does not grow with the catalog and stays far below one snapshot.
func TestFullySequentialPassKeepsNoSnapshots(t *testing.T) {
	d, err := synth.Generate(synth.ML100K(0.5))
	if err != nil {
		t.Fatal(err)
	}
	train := d.SplitByUser(0.8, rand.New(rand.NewSource(21))).Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)
	g, err := New(train, popArec(train, 5), prefs, NewDynCoverage(train.NumItems()), Config{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Recommend() // fills the Pop membership cache and the scratch pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = g.Recommend()
	runtime.ReadMemStats(&after)
	perUser := (after.TotalAlloc - before.TotalAlloc) / uint64(train.NumUsers())
	snapshot := uint64(train.NumItems()) * uint64(unsafe.Sizeof(int(0)))
	t.Logf("%d users × %d items: %d B allocated per user, one snapshot is %d B", train.NumUsers(), train.NumItems(), perUser, snapshot)
	if perUser > snapshot/4 {
		t.Fatalf("a fully sequential pass allocated %d B per user; one frequency snapshot is %d B", perUser, snapshot)
	}
}

func TestNameFollowsPaperTemplate(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(train, popArec(train, 5), prefs, NewDynCoverage(train.NumItems()), Config{N: 5, SampleSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	name := g.Name()
	if !strings.Contains(name, "GANC(") || !strings.Contains(name, "θ^G") || !strings.Contains(name, "Dyn") {
		t.Fatalf("unexpected name %q", name)
	}
}

func TestCoverageRecommenderScoresInUnitInterval(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	stat := NewStatCoverage(train)
	dyn := NewDynCoverage(train.NumItems())
	rnd := NewRandCoverage(1)
	for i := 0; i < train.NumItems(); i += 17 {
		item := types.ItemID(i)
		for _, c := range []CoverageRecommender{stat, dyn, rnd} {
			v := c.CoverageScore(0, item)
			if v < 0 || v > 1 {
				t.Fatalf("%s coverage score %v outside [0,1]", c.Name(), v)
			}
		}
	}
	// Out-of-range items score 0 for the precomputed recommenders.
	if stat.CoverageScore(0, types.ItemID(10_000_000)) != 0 {
		t.Fatal("Stat out-of-range item should score 0")
	}
	if dyn.CoverageScore(0, types.ItemID(10_000_000)) != 0 {
		t.Fatal("Dyn out-of-range item should score 0")
	}
}

func TestStatCoverageFavorsUnpopularItems(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	stat := NewStatCoverage(train)
	// Find the most and least popular items.
	pops := train.PopularityVector()
	mostPop, leastPop := 0, 0
	for i, p := range pops {
		if p > pops[mostPop] {
			mostPop = i
		}
		if p < pops[leastPop] {
			leastPop = i
		}
	}
	if stat.CoverageScore(0, types.ItemID(leastPop)) <= stat.CoverageScore(0, types.ItemID(mostPop)) {
		t.Fatal("Stat should score unpopular items above popular ones")
	}
}

func TestDynCoverageDiminishingReturns(t *testing.T) {
	dyn := NewDynCoverage(10)
	before := dyn.CoverageScore(0, 3)
	if before != 1 {
		t.Fatalf("fresh item should score 1, got %v", before)
	}
	dyn.Observe(3)
	mid := dyn.CoverageScore(0, 3)
	dyn.Observe(3)
	after := dyn.CoverageScore(0, 3)
	if !(before > mid && mid > after) {
		t.Fatalf("scores should strictly decrease with recommendations: %v, %v, %v", before, mid, after)
	}
	if math.Abs(mid-1/math.Sqrt(2)) > 1e-12 {
		t.Fatalf("score after one recommendation = %v, want 1/√2", mid)
	}
	// Frequencies is a copy of the state, not a view of it.
	f := dyn.Frequencies()
	if f[3] != 2 {
		t.Fatalf("frequency = %d, want 2", f[3])
	}
	f[3] = 7
	if dyn.Frequencies()[3] != 2 {
		t.Fatal("writing to Frequencies' result changed the state")
	}
	// Observe on out-of-range item is a no-op, not a panic.
	dyn.Observe(types.ItemID(99))
	if dyn.NumItems() != 10 {
		t.Fatal("NumItems")
	}
}

func TestPopAccuracyIndicatorScores(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	pa := popArec(train, 5)
	pop := &recommender.ScorerTopN{Scorer: recommender.NewPop(train)}
	u := types.UserID(0)
	top := pop.Recommend(u, 5, train.AppendCandidates(u, nil))
	for _, i := range top {
		if pa.AccuracyScore(u, i) != 1 {
			t.Fatalf("item %d in popularity top-5 should score 1", i)
		}
	}
	// An item far down the popularity ranking scores 0.
	pops := train.PopularityVector()
	leastPop := 0
	for i, p := range pops {
		if p < pops[leastPop] {
			leastPop = i
		}
	}
	if _, inTop := train.UserItemSet(u)[types.ItemID(leastPop)]; !inTop {
		if pa.AccuracyScore(u, types.ItemID(leastPop)) != 0 {
			t.Fatal("least popular unseen item should score 0")
		}
	}
	if pa.Name() != "Pop" {
		t.Fatal("name")
	}
}

func TestScorerAccuracyClampsToUnitInterval(t *testing.T) {
	s := &ScorerAccuracy{Scorer: fixedScorer{vals: map[types.ItemID]float64{0: -2, 1: 0.4, 2: 3}}}
	if s.AccuracyScore(0, 0) != 0 || s.AccuracyScore(0, 2) != 1 {
		t.Fatal("clamping failed")
	}
	if s.AccuracyScore(0, 1) != 0.4 {
		t.Fatal("in-range score modified")
	}
	if s.Name() != "fixed" {
		t.Fatal("name passthrough")
	}
}

type fixedScorer struct{ vals map[types.ItemID]float64 }

func (f fixedScorer) Score(_ types.UserID, i types.ItemID) float64 { return f.vals[i] }
func (f fixedScorer) Name() string                                 { return "fixed" }

// countingBulkScorer is a model without a float32 body (as ItemAvg, ItemKNN or
// a custom scorer) that counts how it is asked: pointwise or in bulk.
type countingBulkScorer struct{ pointwise, bulk int }

func (c *countingBulkScorer) value(u types.UserID, i types.ItemID) float64 {
	return float64((int(u)*7+int(i)*13)%29) / 29
}

func (c *countingBulkScorer) Score(u types.UserID, i types.ItemID) float64 {
	c.pointwise++
	return c.value(u, i)
}

func (c *countingBulkScorer) ScoreUser(u types.UserID, items []types.ItemID, out []float64) {
	c.bulk++
	for k, i := range items {
		out[k] = c.value(u, i)
	}
}

func (c *countingBulkScorer) Name() string { return "counting" }

// TestF32TierScoresUntieredModelsInBulk: a ScorerAccuracy is swept in float32,
// and a model without a float32 path still serves a turn through its bulk
// scorer — one call per user, none per item — bare or behind the normaliser
// (where the pointwise route also took the range table's mutex per item), and
// the truncated scores are float32(Score) either way.
func TestF32TierScoresUntieredModelsInBulk(t *testing.T) {
	train := testSplit(t).Train
	users := train.NumUsers()
	prefs := longtail.Constant(users, 0.4)
	for _, tc := range []struct {
		name string
		wrap func(recommender.Scorer) recommender.Scorer
	}{
		{"bare", func(s recommender.Scorer) recommender.Scorer { return s }},
		{"normalised", func(s recommender.Scorer) recommender.Scorer {
			return recommender.NewNormalizedScorer(s, train.NumItems())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := &countingBulkScorer{}
			arec := &ScorerAccuracy{Scorer: tc.wrap(inner)}
			g, err := New(train, arec, prefs, NewStatCoverage(train), Config{N: 5})
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ {
				inner.pointwise, inner.bulk = 0, 0
				g.Recommend()
				if inner.bulk != users || inner.pointwise != 0 {
					t.Fatalf("pass %d: %d bulk and %d pointwise calls for %d users, want one bulk call per user and no pointwise call",
						pass, inner.bulk, inner.pointwise, users)
				}
			}

			got := make([]float32, train.NumItems())
			m := arec.AccuracyScores32(2, got)
			for _, i := range []types.ItemID{3, 0, 7, 1} {
				if want := float32(arec.AccuracyScore(2, i)); m.At(got[i]) != want {
					t.Fatalf("AccuracyScores32 item %d maps to %v, float32(AccuracyScore) = %v", i, m.At(got[i]), want)
				}
			}
		})
	}
}

func TestRecommendProducesValidSetsForAllUsers(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelTFIDF, train, nil, 0, 1)
	n := 5
	for _, crec := range []CoverageRecommender{
		NewStatCoverage(train),
		NewRandCoverage(3),
		NewDynCoverage(train.NumItems()),
	} {
		g, err := New(train, popArec(train, n), prefs, crec, Config{N: n, SampleSize: 40, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		recs := g.Recommend()
		if len(recs) != train.NumUsers() {
			t.Fatalf("%s: got %d users, want %d", crec.Name(), len(recs), train.NumUsers())
		}
		for u := 0; u < train.NumUsers(); u++ {
			uid := types.UserID(u)
			set := recs[uid]
			if len(set) != n {
				t.Fatalf("%s: user %d got %d items, want %d", crec.Name(), u, len(set), n)
			}
			seen := map[types.ItemID]bool{}
			trainItems := train.UserItemSet(uid)
			for _, i := range set {
				if seen[i] {
					t.Fatalf("%s: user %d has duplicate item %d", crec.Name(), u, i)
				}
				seen[i] = true
				if _, bad := trainItems[i]; bad {
					t.Fatalf("%s: user %d recommended an already-rated item %d", crec.Name(), u, i)
				}
			}
		}
	}
}

func TestThetaZeroReproducesAccuracyRecommender(t *testing.T) {
	// With θ_u = 0 for everyone and any coverage recommender, GANC must rank
	// purely by accuracy score — i.e. reproduce the Pop top-N.
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0)
	n := 5
	g, err := New(train, popArec(train, n), prefs, NewStatCoverage(train), Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Recommend()
	pop := &recommender.ScorerTopN{Scorer: recommender.NewPop(train)}
	for u := 0; u < 25 && u < train.NumUsers(); u++ {
		uid := types.UserID(u)
		want := pop.Recommend(uid, n, train.AppendCandidates(uid, nil))
		got := recs[uid]
		wantSet := map[types.ItemID]bool{}
		for _, i := range want {
			wantSet[i] = true
		}
		for _, i := range got {
			if !wantSet[i] {
				t.Fatalf("user %d: θ=0 recommendation %v differs from Pop top-N %v", u, got, want)
			}
		}
	}
}

func TestThetaOneIgnoresAccuracy(t *testing.T) {
	// With θ_u = 1, only coverage matters: under Stat coverage every user
	// must receive the same least-popular unseen items regardless of accuracy.
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 1)
	n := 5
	g, err := New(train, popArec(train, n), prefs, NewStatCoverage(train), Config{N: n})
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Recommend()
	stat := NewStatCoverage(train)
	for u := 0; u < 10; u++ {
		uid := types.UserID(u)
		cands := train.AppendCandidates(uid, nil)
		scores := make([]float64, len(cands))
		for k, i := range cands {
			scores[k] = stat.CoverageScore(uid, i)
		}
		want := recommender.SelectTop(cands, scores, n)
		got := recs[uid]
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("user %d: θ=1 set %v differs from pure-coverage ranking %v", u, got, want)
			}
		}
	}
}

func TestDynCoverageIncreasesCatalogCoverage(t *testing.T) {
	// The core claim of the paper: GANC with Dyn coverage covers far more of
	// the catalog than the plain accuracy recommender, while θ controls how
	// much accuracy is traded away.
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	n := 5

	popRecs := recommender.RecommendAll(&recommender.ScorerTopN{Scorer: recommender.NewPop(train)}, train, n)

	g, err := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gancRecs := g.Recommend()

	popCoverage := len(popRecs.DistinctItems())
	gancCoverage := len(gancRecs.DistinctItems())
	if gancCoverage <= popCoverage {
		t.Fatalf("GANC(Dyn) coverage %d not above Pop coverage %d", gancCoverage, popCoverage)
	}
	if float64(gancCoverage) < 2*float64(popCoverage) {
		t.Logf("note: coverage improvement modest: %d vs %d", gancCoverage, popCoverage)
	}
}

func TestOSLGSampleSizeZeroMeansFullySequential(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)
	n := 3
	g1, _ := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: 0, Seed: 7})
	g2, _ := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: train.NumUsers() * 2, Seed: 7})
	r1 := g1.Recommend()
	r2 := g2.Recommend()
	// Both run the fully sequential algorithm over users sorted by (θ, id);
	// with identical constant θ the ordering and hence the output must match.
	for u := range r1 {
		for k := range r1[u] {
			if r1[u][k] != r2[u][k] {
				t.Fatalf("fully-sequential runs disagree for user %d: %v vs %v", u, r1[u], r2[u])
			}
		}
	}
}

func TestOSLGDeterministicForFixedSeed(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelTFIDF, train, nil, 0, 1)
	n := 5
	build := func() types.Recommendations {
		g, err := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: 30, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return g.Recommend()
	}
	a, b := build(), build()
	for u := range a {
		for k := range a[u] {
			if a[u][k] != b[u][k] {
				t.Fatalf("same seed produced different OSLG output for user %d", u)
			}
		}
	}
}

func TestOSLGSamplingApproximatesFullSequentialValue(t *testing.T) {
	// The sampled algorithm should achieve an objective value close to the
	// fully sequential one (it is a heuristic, but on a small dataset the
	// degradation must be bounded).
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	n := 5
	full, _ := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: 0, Seed: 3})
	fullRecs := full.Recommend()
	fullValue := full.ValueOf(fullRecs)

	sampled, _ := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: train.NumUsers() / 4, Seed: 3})
	sampledRecs := sampled.Recommend()
	sampledValue := sampled.ValueOf(sampledRecs)

	if sampledValue < 0.8*fullValue {
		t.Fatalf("OSLG sampled value %.2f dropped below 80%% of the fully sequential value %.2f", sampledValue, fullValue)
	}
}

func TestLargerSampleSizeDoesNotReduceCoverage(t *testing.T) {
	// Figure 3's qualitative trend: increasing S increases (or at least does
	// not materially decrease) coverage.
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	n := 5
	coverageAt := func(s int) int {
		g, err := New(train, popArec(train, n), prefs, NewDynCoverage(train.NumItems()), Config{N: n, SampleSize: s, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return len(g.Recommend().DistinctItems())
	}
	small := coverageAt(10)
	large := coverageAt(train.NumUsers() / 2)
	if large < small-2 {
		t.Fatalf("coverage at large sample (%d) fell below coverage at small sample (%d)", large, small)
	}
}

func TestValueOfEmptyRecommendations(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)
	g, _ := New(train, popArec(train, 5), prefs, NewStatCoverage(train), Config{N: 5})
	if got := g.ValueOf(types.Recommendations{}); got != 0 {
		t.Fatalf("empty collection value = %v, want 0", got)
	}
}

func TestRandCoverageName(t *testing.T) {
	if NewRandCoverage(1).Name() != "Rand" || NewStatCoverage(dataset.FromRatings("x", []types.Rating{{User: 0, Item: 0, Value: 1}})).Name() != "Stat" || NewDynCoverage(1).Name() != "Dyn" {
		t.Fatal("coverage recommender names wrong")
	}
}
