package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// fixtureSplit builds a hand-crafted split with known relevance structure:
//
//	train: user0 rated items 0,1; user1 rated items 0,2; user2 rated item 0
//	test:  user0 rated item 3 with 5 (relevant) and item 4 with 2 (not)
//	       user1 rated item 5 with 4 (relevant)
//	       user2 has no test ratings
//
// Item 0 is the popular head item (3 train ratings).
func fixtureSplit() *dataset.Split {
	bTrain := dataset.NewBuilder("train", 8)
	bTrain.AddIDs(0, 0, 5)
	bTrain.AddIDs(0, 1, 4)
	bTrain.AddIDs(1, 0, 4)
	bTrain.AddIDs(1, 2, 3)
	bTrain.AddIDs(2, 0, 2)
	// Items 3, 4, 5, 6 exist in the catalog (rated once by a filler user so
	// the ID space includes them, mirroring a shared parent ID space).
	bTrain.AddIDs(3, 3, 3)
	bTrain.AddIDs(3, 4, 3)
	bTrain.AddIDs(3, 5, 3)
	bTrain.AddIDs(3, 6, 3)
	train := bTrain.Build()

	bTest := dataset.NewBuilder("test", 4)
	bTest.AddIDs(0, 3, 5)
	bTest.AddIDs(0, 4, 2)
	bTest.AddIDs(1, 5, 4)
	test := bTest.Build()
	// Expand test's ID space to match train by registering the same items.
	// (FromRatings-style datasets share nothing, so rebuild via parent.)
	parentB := dataset.NewBuilder("parent", 16)
	for _, r := range train.Ratings() {
		parentB.AddIDs(r.User, r.Item, r.Value)
	}
	for _, r := range test.Ratings() {
		parentB.AddIDs(r.User, r.Item, r.Value)
	}
	parent := parentB.Build()
	// Manually build the split with shared ID spaces.
	trainChild := parent.SubsetUsers([]types.UserID{0, 1, 2, 3})
	_ = trainChild
	return &dataset.Split{Parent: parent, Train: train, Test: test, Kappa: 0.8}
}

func TestEvaluatePrecisionRecallFMeasure(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0)
	recs := types.Recommendations{
		0: {3, 4}, // hit on 3 (relevant), miss on 4
		1: {6, 5}, // hit on 5
		2: {3, 4}, // user2 has no relevant test items
	}
	rep := ev.Evaluate("probe", recs, 2)
	// Precision: user0 1/2, user1 1/2, user2 0/2 → 1/3.
	if math.Abs(rep.Precision-1.0/3) > 1e-9 {
		t.Fatalf("Precision = %v, want 1/3", rep.Precision)
	}
	// Recall: averaged over users with relevant items (user0: 1/1, user1: 1/1) → 1.
	if math.Abs(rep.Recall-1.0) > 1e-9 {
		t.Fatalf("Recall = %v, want 1", rep.Recall)
	}
	wantF := rep.Precision * rep.Recall / (rep.Precision + rep.Recall)
	if math.Abs(rep.FMeasure-wantF) > 1e-12 {
		t.Fatalf("FMeasure = %v, want %v", rep.FMeasure, wantF)
	}
	if rep.UsersEvaluated != 3 {
		t.Fatalf("UsersEvaluated = %d", rep.UsersEvaluated)
	}
}

func TestEvaluateLTAccuracy(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0)
	tail := ev.LongTail()
	// Head item 0 must not be long-tail; the once-rated items are.
	if _, isTail := tail[0]; isTail {
		t.Fatal("item 0 should be head")
	}
	recs := types.Recommendations{
		0: {0, 3}, // one head, one tail (item 3 rated once)
	}
	rep := ev.Evaluate("lt", recs, 2)
	if _, tail3 := tail[3]; tail3 {
		if math.Abs(rep.LTAccuracy-0.5) > 1e-9 {
			t.Fatalf("LTAccuracy = %v, want 0.5", rep.LTAccuracy)
		}
	}
}

func TestEvaluateCoverageAndGini(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0)
	numItems := sp.Train.NumItems()
	// Every user gets the same two items → low coverage, high gini.
	concentrated := types.Recommendations{0: {0, 1}, 1: {0, 1}, 2: {0, 1}}
	repC := ev.Evaluate("conc", concentrated, 2)
	if math.Abs(repC.Coverage-2.0/float64(numItems)) > 1e-9 {
		t.Fatalf("Coverage = %v, want %v", repC.Coverage, 2.0/float64(numItems))
	}
	// Spread recommendations across distinct items → higher coverage, lower gini.
	spread := types.Recommendations{0: {0, 1}, 1: {2, 3}, 2: {4, 5}}
	repS := ev.Evaluate("spread", spread, 2)
	if repS.Coverage <= repC.Coverage {
		t.Fatal("spread coverage should exceed concentrated coverage")
	}
	if repS.Gini >= repC.Gini {
		t.Fatalf("spread gini %v should be below concentrated gini %v", repS.Gini, repC.Gini)
	}
}

func TestGiniKnownValues(t *testing.T) {
	// Perfect equality: every item recommended once → gini 0.
	if g := Gini([]int{1, 1, 1, 1}); math.Abs(g) > 1e-9 {
		t.Fatalf("uniform gini = %v, want 0", g)
	}
	// All recommendations on a single item out of n: gini → (n-1)/n.
	g := Gini([]int{0, 0, 0, 10})
	if math.Abs(g-0.75) > 1e-9 {
		t.Fatalf("single-item gini = %v, want 0.75", g)
	}
	// Empty or all-zero frequency vectors are defined as 0.
	if Gini(nil) != 0 || Gini([]int{0, 0}) != 0 {
		t.Fatal("degenerate gini should be 0")
	}
}

func TestGiniMonotoneUnderConcentrationProperty(t *testing.T) {
	// Property: moving one recommendation from a less-recommended item to a
	// more-recommended item never decreases the Gini coefficient.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8
		freq := make([]int, n)
		for i := range freq {
			freq[i] = rng.Intn(20) + 1
		}
		before := Gini(freq)
		// Pick donor = a minimum item, recipient = a maximum item.
		lo, hi := 0, 0
		for i, f := range freq {
			if f < freq[lo] {
				lo = i
			}
			if f > freq[hi] {
				hi = i
			}
		}
		if lo == hi || freq[lo] == 0 {
			return true
		}
		freq[lo]--
		freq[hi]++
		after := Gini(freq)
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageHelper(t *testing.T) {
	if Coverage([]int{1, 0, 2, 0}) != 0.5 {
		t.Fatal("Coverage helper wrong")
	}
	if Coverage(nil) != 0 {
		t.Fatal("empty coverage should be 0")
	}
}

func TestStratifiedRecallWeightsRareHitsHigher(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0.5)
	// Construct two single-user collections: one hits the user's relevant
	// item (item 3, popularity 1), another misses. Stratified recall of the
	// hit must be positive and ≤ 1; the miss is 0.
	hit := types.Recommendations{0: {3}}
	miss := types.Recommendations{0: {6}}
	if got := ev.Evaluate("hit", hit, 1).StratRecall; got <= 0 || got > 1 {
		t.Fatalf("hit stratified recall = %v", got)
	}
	if got := ev.Evaluate("miss", miss, 1).StratRecall; got != 0 {
		t.Fatalf("miss stratified recall = %v, want 0", got)
	}
}

func TestStratifiedRecallEmphasizesLongTailOverHead(t *testing.T) {
	// Build a split where user0 has two relevant test items: one popular in
	// train, one rare. Hitting only the rare one must yield higher stratified
	// recall than hitting only the popular one, even though plain recall is
	// identical (1/2 each).
	bTrain := dataset.NewBuilder("train", 16)
	for u := 0; u < 6; u++ {
		bTrain.AddIDs(types.UserID(u), 0, 4) // item 0: popular
	}
	bTrain.AddIDs(5, 1, 4) // item 1: rated once
	bTrain.AddIDs(0, 2, 3) // filler so user0 exists in train
	train := bTrain.Build()
	bTest := dataset.NewBuilder("test", 4)
	bTest.AddIDs(0, 0, 5)
	bTest.AddIDs(0, 1, 5)
	test := bTest.Build()
	sp := &dataset.Split{Parent: train, Train: train, Test: test, Kappa: 0.5}
	ev := NewEvaluator(sp, 0.5)

	hitPopular := ev.Evaluate("pop-hit", types.Recommendations{0: {0}}, 1)
	hitRare := ev.Evaluate("rare-hit", types.Recommendations{0: {1}}, 1)
	if hitRare.StratRecall <= hitPopular.StratRecall {
		t.Fatalf("rare hit stratified recall %v should exceed popular hit %v",
			hitRare.StratRecall, hitPopular.StratRecall)
	}
	if hitRare.Recall != hitPopular.Recall {
		t.Fatalf("plain recall should be identical: %v vs %v", hitRare.Recall, hitPopular.Recall)
	}
}

func TestEvaluateTruncatesLongLists(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0)
	recs := types.Recommendations{0: {3, 4, 5, 6, 0, 1}}
	rep := ev.Evaluate("trunc", recs, 2)
	// Only the first two items count: hit on 3, miss on 4 → precision 1/2.
	if math.Abs(rep.Precision-0.5) > 1e-9 {
		t.Fatalf("Precision with truncation = %v, want 0.5", rep.Precision)
	}
}

func TestEvaluateDegenerateInputs(t *testing.T) {
	sp := fixtureSplit()
	ev := NewEvaluator(sp, 0)
	if rep := ev.Evaluate("none", types.Recommendations{}, 5); rep.FMeasure != 0 || rep.Coverage != 0 {
		t.Fatal("empty recommendations should produce zero metrics")
	}
	if rep := ev.Evaluate("zero-n", types.Recommendations{0: {1}}, 0); rep.Precision != 0 {
		t.Fatal("n=0 should produce zero metrics")
	}
}

func TestRankReportsAverageRank(t *testing.T) {
	reports := []Report{
		{Algorithm: "A", FMeasure: 0.3, StratRecall: 0.3, LTAccuracy: 0.3, Coverage: 0.3, Gini: 0.2},
		{Algorithm: "B", FMeasure: 0.2, StratRecall: 0.2, LTAccuracy: 0.2, Coverage: 0.2, Gini: 0.5},
		{Algorithm: "C", FMeasure: 0.1, StratRecall: 0.1, LTAccuracy: 0.1, Coverage: 0.1, Gini: 0.9},
	}
	ranks := RankReports(reports)
	if ranks["A"] >= ranks["B"] || ranks["B"] >= ranks["C"] {
		t.Fatalf("rank ordering wrong: %v", ranks)
	}
	if ranks["A"] != 1 {
		t.Fatalf("algorithm A should rank 1 on every metric, got %v", ranks["A"])
	}
	if RankReports(nil) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestRankReportsGiniLowerIsBetter(t *testing.T) {
	reports := []Report{
		{Algorithm: "lowGini", FMeasure: 0.1, StratRecall: 0.1, LTAccuracy: 0.1, Coverage: 0.1, Gini: 0.1},
		{Algorithm: "highGini", FMeasure: 0.1, StratRecall: 0.1, LTAccuracy: 0.1, Coverage: 0.1, Gini: 0.9},
	}
	ranks := RankReports(reports)
	if ranks["lowGini"] >= ranks["highGini"] {
		t.Fatalf("lower gini should improve the average rank: %v", ranks)
	}
}

func TestProtocolStrings(t *testing.T) {
	if ProtocolAllUnrated.String() != "all-unrated-items" || ProtocolRatedTestItems.String() != "rated-test-items" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(99).String() != "unknown-protocol" {
		t.Fatal("unknown protocol name wrong")
	}
}

func TestRecommendWithProtocolAllUnratedExcludesTrainItems(t *testing.T) {
	sp := fixtureSplit()
	pop := recommender.NewPop(sp.Train)
	recs := RecommendWithProtocol(pop, sp, 3, ProtocolAllUnrated)
	for u, set := range recs {
		trainItems := sp.Train.UserItemSet(u)
		for _, i := range set {
			if _, bad := trainItems[i]; bad {
				t.Fatalf("user %d recommended train item %d", u, i)
			}
		}
	}
}

func TestRecommendWithProtocolRatedTestItemsOnlyRanksTestItems(t *testing.T) {
	sp := fixtureSplit()
	pop := recommender.NewPop(sp.Train)
	recs := RecommendWithProtocol(pop, sp, 3, ProtocolRatedTestItems)
	// User 0 has test items {3, 4}; their list must be a subset of those.
	for _, i := range recs[0] {
		if i != 3 && i != 4 {
			t.Fatalf("rated-test-items protocol produced out-of-pool item %d", i)
		}
	}
	// User 2 has no test ratings → no list.
	if len(recs[2]) != 0 {
		t.Fatalf("user without test ratings received a list: %v", recs[2])
	}
}

// drawCounter is a scorer whose every Score call is a fresh draw, as
// recommender.Rand's is; it counts them.
type drawCounter struct{ calls int }

func (c *drawCounter) Score(types.UserID, types.ItemID) float64 {
	c.calls++
	return float64(c.calls * 7 % 5)
}
func (c *drawCounter) Name() string { return "draws" }

// TestRatedTestItemsProtocolScoresEachItemOnce: a ranking is only defined when
// each candidate has one score, and the Appendix C study passes Rand, so the
// protocol must not score inside a sort comparator.
func TestRatedTestItemsProtocolScoresEachItemOnce(t *testing.T) {
	bTrain := dataset.NewBuilder("train", 8)
	bTest := dataset.NewBuilder("test", 16)
	bTrain.AddIDs(0, 0, 4)
	bTrain.AddIDs(1, 0, 3)
	testItems := 0
	for u, count := range []int{7, 4} {
		for i := 1; i <= count; i++ {
			bTest.AddIDs(types.UserID(u), types.ItemID(i), 5)
			testItems++
		}
	}
	sp := &dataset.Split{Train: bTrain.Build(), Test: bTest.Build(), Kappa: 0.5}
	c := &drawCounter{}
	recs := RecommendWithProtocol(c, sp, 3, ProtocolRatedTestItems)
	if c.calls != testItems {
		t.Fatalf("%d Score calls for %d test items", c.calls, testItems)
	}
	if len(recs[0]) != 3 || len(recs[1]) != 3 {
		t.Fatalf("lists %v", recs)
	}
}

func TestProtocolBiasMatchesAppendixC(t *testing.T) {
	// The paper's Appendix C observation: accuracy measured under the
	// rated-test-items protocol is (much) higher than under the all-unrated
	// protocol for the same model. Verify with Pop on a synthetic-ish split.
	bTrain := dataset.NewBuilder("train", 64)
	bTest := dataset.NewBuilder("test", 32)
	rng := rand.New(rand.NewSource(4))
	for u := 0; u < 12; u++ {
		for i := 0; i < 12; i++ {
			if rng.Float64() < 0.4 {
				bTrain.AddIDs(types.UserID(u), types.ItemID(i), float64(1+rng.Intn(5)))
			} else if rng.Float64() < 0.3 {
				bTest.AddIDs(types.UserID(u), types.ItemID(i), float64(3+rng.Intn(3)))
			}
		}
	}
	sp := &dataset.Split{Train: bTrain.Build(), Test: bTest.Build(), Kappa: 0.5}
	ev := NewEvaluator(sp, 0)
	pop := recommender.NewPop(sp.Train)
	allUnrated := ev.Evaluate("pop-all", RecommendWithProtocol(pop, sp, 3, ProtocolAllUnrated), 3)
	ratedOnly := ev.Evaluate("pop-rated", RecommendWithProtocol(pop, sp, 3, ProtocolRatedTestItems), 3)
	if ratedOnly.Precision < allUnrated.Precision {
		t.Fatalf("rated-test-items precision %v should be at least all-unrated precision %v",
			ratedOnly.Precision, allUnrated.Precision)
	}
}
