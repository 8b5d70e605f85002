package recommender

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// trainFixture builds a small train set where item popularity is strictly
// item0 > item1 > item2 > item3 > item4 (5, 4, 3, 2, 1 ratings).
func trainFixture() *dataset.Dataset {
	b := dataset.NewBuilder("train", 32)
	pop := []int{5, 4, 3, 2, 1}
	user := 0
	for item, count := range pop {
		for k := 0; k < count; k++ {
			b.AddIDs(types.UserID(user%6), types.ItemID(item), float64(1+item%5))
			user++
		}
	}
	return b.Build()
}

// oracleTopN is the map-based form of the all-unrated-items ranking the
// candidate path is held to: every catalog item outside exclude, fully sorted
// by score descending and item ascending, cut to n.
func oracleTopN(numItems, n int, exclude map[types.ItemID]struct{}, score func(types.ItemID) float64) types.TopNSet {
	var all []types.ScoredItem
	for i := 0; i < numItems; i++ {
		if _, skip := exclude[types.ItemID(i)]; !skip {
			all = append(all, types.ScoredItem{Item: types.ItemID(i), Score: score(types.ItemID(i))})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Item < all[b].Item
	})
	if n < 0 {
		n = 0
	}
	if n > len(all) {
		n = len(all)
	}
	set := make(types.TopNSet, n)
	for k := range set {
		set[k] = all[k].Item
	}
	return set
}

// catalogItems is the identity candidate slice [0, n).
func catalogItems(n int) []types.ItemID {
	out := make([]types.ItemID, n)
	for i := range out {
		out[i] = types.ItemID(i)
	}
	return out
}

func sameList(a, b types.TopNSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func TestSelectTopNOrdersAndExcludes(t *testing.T) {
	// Item 1 is not a candidate, so its (best) score is never read.
	cands := []types.ItemID{0, 2, 3, 4}
	scores := []float64{0.1, 0.5, 0.7, 0.3}
	got := SelectTop(cands, scores, 3)
	if want := (types.TopNSet{3, 2, 4}); !sameList(got, want) {
		t.Fatalf("SelectTop = %v, want %v", got, want)
	}
}

func TestSelectTopNHandlesSmallCandidateSets(t *testing.T) {
	got := SelectTop(catalogItems(2), []float64{0, 1}, 5)
	if want := (types.TopNSet{1, 0}); !sameList(got, want) {
		t.Fatalf("expected all candidates, best first, when n > catalog: got %v", got)
	}
	if got := SelectTop(catalogItems(5), make([]float64, 5), 0); got != nil {
		t.Fatalf("n=0 should return nil, got %v", got)
	}
	if got := SelectTop(nil, []float32{}, 3); len(got) != 0 {
		t.Fatalf("no candidates should give an empty list, got %v", got)
	}
}

func TestSelectTopNTieBreaksByItemID(t *testing.T) {
	scores := []float32{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	// Candidate order must not matter: the rule is on the identifier.
	cands := []types.ItemID{7, 2, 9, 0, 5, 3, 8, 1, 6, 4}
	if got, want := SelectTop(cands, scores, 4), (types.TopNSet{0, 1, 2, 3}); !sameList(got, want) {
		t.Fatalf("tie-break order wrong: %v", got)
	}
}

// The selector's property test: at both score widths SelectTop returns exactly
// the head of a full sort by (score descending, item ascending), for shuffled
// candidate slices with heavy ties and every n from below zero to beyond the
// slice; and the two instantiations agree whenever the scores are
// float32-representable.
func TestSelectTopNMatchesFullSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numItems := rng.Intn(60) // 0 included: empty input
		cands := catalogItems(numItems)
		rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
		byItem := make([]float64, numItems)
		for i := range byItem {
			byItem[i] = float64(rng.Intn(5)) / 4 // five distinct values, all exact in float32
		}
		scores64 := make([]float64, numItems)
		scores32 := make([]float32, numItems)
		for k, i := range cands {
			scores64[k], scores32[k] = byItem[i], float32(byItem[i])
		}
		for _, n := range []int{-1, 0, 1, 1 + rng.Intn(10), numItems, numItems + 3} {
			got64, got32 := SelectTop(cands, scores64, n), SelectTop(cands, scores32, n)
			want := oracleTopN(numItems, n, nil, func(i types.ItemID) float64 { return byItem[i] })
			if !sameList(got64, want) || !sameList(got32, want) {
				t.Logf("seed %d n %d: f64 %v f32 %v want %v", seed, n, got64, got32, want)
				return false
			}
			if (n <= 0) != (got64 == nil) || (n <= 0) != (got32 == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPopRecommendsMostPopularUnseen(t *testing.T) {
	train := trainFixture()
	pop := NewPop(train)
	top := &ScorerTopN{Scorer: pop}
	got := top.Recommend(0, 3, catalogItems(train.NumItems()))
	if want := (types.TopNSet{0, 1, 2}); !sameList(got, want) {
		t.Fatalf("Pop ranking = %v, want %v", got, want)
	}
	// Without the head item among the candidates the next most popular leads.
	got = top.Recommend(0, 3, catalogItems(train.NumItems())[1:])
	if got[0] != 1 {
		t.Fatalf("Pop without the head item = %v", got)
	}
	if pop.Name() != "Pop" {
		t.Fatal("name")
	}
	if pop.Score(0, 0) != 5 || pop.Score(0, 99) != 0 {
		t.Fatalf("Pop.Score wrong: %v, %v", pop.Score(0, 0), pop.Score(0, 99))
	}
}

func TestRandRecommendDistinctAndExcluded(t *testing.T) {
	r := NewRand(7)
	exclude := map[types.ItemID]struct{}{3: {}, 7: {}, 11: {}}
	var cands []types.ItemID
	for _, i := range catalogItems(50) {
		if _, skip := exclude[i]; !skip {
			cands = append(cands, i)
		}
	}
	got := r.Recommend(0, 10, cands)
	if len(got) != 10 {
		t.Fatalf("Rand returned %d items, want 10", len(got))
	}
	seen := map[types.ItemID]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate item %d in %v", i, got)
		}
		seen[i] = true
		if _, bad := exclude[i]; bad {
			t.Fatalf("excluded item %d recommended", i)
		}
	}
}

func TestRandCoversCatalogAcrossUsers(t *testing.T) {
	r := NewRand(3)
	hit := map[types.ItemID]bool{}
	for u := 0; u < 200; u++ {
		for _, i := range r.Recommend(types.UserID(u), 5, catalogItems(30)) {
			hit[i] = true
		}
	}
	if len(hit) < 28 {
		t.Fatalf("random recommender only touched %d/30 items", len(hit))
	}
}

func TestItemAvgScoresByMeanRating(t *testing.T) {
	b := dataset.NewBuilder("avg", 8)
	b.AddIDs(0, 0, 5)
	b.AddIDs(1, 0, 5)
	b.AddIDs(0, 1, 2)
	b.AddIDs(1, 1, 2)
	b.AddIDs(2, 2, 4)
	d := b.Build()
	avg := NewItemAvg(d, 0)
	if avg.Avg(0) != 5 || avg.Avg(1) != 2 || avg.Avg(2) != 4 {
		t.Fatalf("raw means wrong: %v %v %v", avg.Avg(0), avg.Avg(1), avg.Avg(2))
	}
	// With shrinkage, a single 4-star rating is pulled toward the global mean.
	shrunk := NewItemAvg(d, 5)
	if shrunk.Avg(2) >= 4 || shrunk.Avg(2) <= d.MeanRating()-1 {
		t.Fatalf("shrinkage not applied sensibly: %v (global mean %v)", shrunk.Avg(2), d.MeanRating())
	}
	if avg.Name() != "ItemAvg" {
		t.Fatal("name")
	}
}

func TestItemAvgNeverRatedItemIsZeroWithoutShrinkage(t *testing.T) {
	b := dataset.NewBuilder("gap", 4)
	b.AddIDs(0, 0, 5)
	b.AddIDs(0, 2, 3)
	d := b.Build() // item 1 exists but unrated
	avg := NewItemAvg(d, 0)
	if avg.Avg(1) != 0 {
		t.Fatalf("unrated item mean = %v, want 0", avg.Avg(1))
	}
}

type fixedScorer struct{ scores map[types.ItemID]float64 }

func (f fixedScorer) Score(_ types.UserID, i types.ItemID) float64 { return f.scores[i] }
func (f fixedScorer) Name() string                                 { return "fixed" }

func TestScorerTopNAdapter(t *testing.T) {
	s := fixedScorer{scores: map[types.ItemID]float64{0: 0.2, 1: 0.8, 2: 0.5}}
	top := &ScorerTopN{Scorer: s}
	got := top.Recommend(0, 2, catalogItems(3))
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("ScorerTopN = %v", got)
	}
	if top.Name() != "fixed" {
		t.Fatal("name passthrough")
	}
}

func TestNormalizedScorerMapsToUnitInterval(t *testing.T) {
	s := fixedScorer{scores: map[types.ItemID]float64{0: -10, 1: 0, 2: 30}}
	ns := NewNormalizedScorer(s, 3)
	if got := ns.AccuracyScore(0, 0); got != 0 {
		t.Fatalf("min score normalized to %v, want 0", got)
	}
	if got := ns.AccuracyScore(0, 2); got != 1 {
		t.Fatalf("max score normalized to %v, want 1", got)
	}
	mid := ns.AccuracyScore(0, 1)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("mid score %v not strictly inside (0,1)", mid)
	}
	if ns.Name() != "fixed" {
		t.Fatal("name passthrough")
	}
}

func TestNormalizedScorerConstantScores(t *testing.T) {
	s := fixedScorer{scores: map[types.ItemID]float64{0: 3, 1: 3, 2: 3}}
	ns := NewNormalizedScorer(s, 3)
	if got := ns.AccuracyScore(0, 1); got != 0 {
		t.Fatalf("constant scores should normalize to 0, got %v", got)
	}
}

func TestRecommendAllExcludesTrainItems(t *testing.T) {
	train := trainFixture()
	pop := NewPop(train)
	recs := RecommendAll(&ScorerTopN{Scorer: pop}, train, 2)
	if len(recs) != train.NumUsers() {
		t.Fatalf("got recs for %d users, want %d", len(recs), train.NumUsers())
	}
	for u := 0; u < train.NumUsers(); u++ {
		uid := types.UserID(u)
		seen := train.UserItemSet(uid)
		for _, i := range recs[uid] {
			if _, bad := seen[i]; bad {
				t.Fatalf("user %d recommended already-rated item %d", u, i)
			}
		}
	}
}

func TestSortItemsByScoreDesc(t *testing.T) {
	items := []types.ItemID{3, 1, 2}
	SortItemsByScoreDesc(items, func(i types.ItemID) float64 { return float64(i) })
	if items[0] != 3 || items[2] != 1 {
		t.Fatalf("sorted = %v", items)
	}
}
