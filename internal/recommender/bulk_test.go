package recommender

import (
	"context"
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// bulkTestDataset builds a small random dataset shared by the bulk tests.
func bulkTestDataset(seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ratings := []types.Rating{{User: 19, Item: 39, Value: 3}}
	for k := 0; k < 400; k++ {
		ratings = append(ratings, types.Rating{
			User:  types.UserID(rng.Intn(20)),
			Item:  types.ItemID(rng.Intn(40)),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	return dataset.FromRatings("bulk", ratings)
}

// assertBulkMatchesScore checks the BulkScorer contract: ScoreUser fills
// exactly the values the pointwise Score returns.
func assertBulkMatchesScore(t *testing.T, s Scorer, numUsers, numItems int) {
	t.Helper()
	bs, ok := s.(BulkScorer)
	if !ok {
		t.Fatalf("%s does not implement BulkScorer", s.Name())
	}
	items := make([]types.ItemID, numItems+2)
	for k := range items {
		items[k] = types.ItemID(k) // includes out-of-range items
	}
	out := make([]float64, len(items))
	for u := 0; u < numUsers; u++ {
		uid := types.UserID(u)
		bs.ScoreUser(uid, items, out)
		for k, i := range items {
			if want := s.Score(uid, i); out[k] != want {
				t.Fatalf("%s: user %d item %d: bulk %v != score %v", s.Name(), u, i, out[k], want)
			}
		}
	}
}

func TestPopBulkMatchesScore(t *testing.T) {
	d := bulkTestDataset(1)
	assertBulkMatchesScore(t, NewPop(d), d.NumUsers(), d.NumItems())
}

func TestItemAvgBulkMatchesScore(t *testing.T) {
	d := bulkTestDataset(2)
	assertBulkMatchesScore(t, NewItemAvg(d, 5), d.NumUsers(), d.NumItems())
}

func TestNormalizedScorerBulkMatchesScore(t *testing.T) {
	d := bulkTestDataset(3)
	// Wrap a deterministic inner scorer (item average) in the normalizer.
	assertBulkMatchesScore(t, NewNormalizedScorer(NewItemAvg(d, 0), d.NumItems()), d.NumUsers(), d.NumItems())
}

// plainScorer deliberately does NOT implement BulkScorer, to exercise the
// fallback adapter.
type plainScorer struct{}

func (plainScorer) Score(u types.UserID, i types.ItemID) float64 {
	return float64(int(u)*31+int(i)*7) / 97.0
}
func (plainScorer) Name() string { return "plain" }

func TestBulkScoresFallbackAdapter(t *testing.T) {
	items := []types.ItemID{3, 1, 4, 1, 5}
	out := make([]float64, len(items))
	BulkScores(plainScorer{}, 2, items, out)
	for k, i := range items {
		if want := (plainScorer{}).Score(2, i); out[k] != want {
			t.Fatalf("fallback mismatch at %d: %v != %v", k, out[k], want)
		}
	}
}

func TestBulkScoresPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	BulkScores(plainScorer{}, 0, []types.ItemID{1, 2}, make([]float64, 1))
}

// assertRanksLikeOracle holds model's ranking of each user's candidate slice to
// the brute-force oracle over the catalog minus the user's train items.
func assertRanksLikeOracle(t *testing.T, model TopN, s Scorer, d *dataset.Dataset, n int) {
	t.Helper()
	var cand []types.ItemID
	for u := 0; u < d.NumUsers(); u++ {
		uid := types.UserID(u)
		cand = d.AppendCandidates(uid, cand[:0])
		got := model.Recommend(uid, n, cand)
		want := oracleTopN(d.NumItems(), n, d.UserItemSet(uid), func(i types.ItemID) float64 { return s.Score(uid, i) })
		if !sameList(got, want) {
			t.Fatalf("user %d: Recommend %v != oracle %v", u, got, want)
		}
	}
}

func TestScorerTopNRecommendFromMatchesRecommend(t *testing.T) {
	d := bulkTestDataset(4)
	s := NewItemAvg(d, 2)
	assertRanksLikeOracle(t, &ScorerTopN{Scorer: s}, s, d, 7)
	// A scorer without a bulk path ranks through the same selector.
	assertRanksLikeOracle(t, &ScorerTopN{Scorer: plainScorer{}}, plainScorer{}, d, 7)
}

func TestPopRecommendFromMatchesRecommend(t *testing.T) {
	d := bulkTestDataset(5)
	pop := NewPop(d)
	assertRanksLikeOracle(t, &ScorerTopN{Scorer: pop}, pop, d, 5)
}

func TestRandRecommendFromIsValid(t *testing.T) {
	d := bulkTestDataset(6)
	r := NewRand(9)
	var cand []types.ItemID
	for u := 0; u < d.NumUsers(); u++ {
		uid := types.UserID(u)
		cand = d.AppendCandidates(uid, cand[:0])
		set := r.Recommend(uid, 5, cand)
		if len(set) != 5 && len(set) != len(cand) {
			t.Fatalf("user %d: got %d items", u, len(set))
		}
		seen := map[types.ItemID]bool{}
		rated := d.UserItemSet(uid)
		for _, i := range set {
			if seen[i] {
				t.Fatalf("user %d: duplicate item %d", u, i)
			}
			seen[i] = true
			if _, bad := rated[i]; bad {
				t.Fatalf("user %d: rated item %d recommended", u, i)
			}
		}
	}
}

// TestRandBulkDrawsInItemOrder pins what keeps every experiment table's bytes:
// one bulk call consumes the generator exactly as the same Score calls would.
func TestRandBulkDrawsInItemOrder(t *testing.T) {
	items := []types.ItemID{4, 0, 9, 2, 7}
	bulk, point := NewRand(21), NewRand(21)
	out := make([]float64, len(items))
	bulk.ScoreUser(3, items, out)
	for k, i := range items {
		if want := point.Score(3, i); out[k] != want {
			t.Fatalf("draw %d: bulk %v != pointwise %v", k, out[k], want)
		}
	}
}

func TestSelectTopNScoredMatchesSelectTopN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		numItems := 30 + rng.Intn(40)
		scores := make([]float64, numItems)
		for i := range scores {
			scores[i] = float64(rng.Intn(7)) // coarse values force ties
		}
		n := 1 + rng.Intn(10)
		got := SelectTop(catalogItems(numItems), scores, n)
		want := oracleTopN(numItems, n, nil, func(i types.ItemID) float64 { return scores[i] })
		if !sameList(got, want) {
			t.Fatalf("trial %d: %v != %v", trial, got, want)
		}
	}
}

func TestTopNEngineRecommendUserUsesCandidatePipeline(t *testing.T) {
	d := bulkTestDataset(8)
	e := &TopNEngine{Model: &ScorerTopN{Scorer: NewPop(d)}, Train: d, N: 4}
	set, err := e.RecommendUser(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("got %d items", len(set))
	}
	rated := d.UserItemSet(0)
	for _, i := range set {
		if _, bad := rated[i]; bad {
			t.Fatalf("rated item %d recommended", i)
		}
	}
}
