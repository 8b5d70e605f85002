package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// popTopOracle is user u's popularity top-n as the selection over the whole
// candidate list computes it: every candidate scored by Pop, then the n best,
// ties to the smaller ItemID.
func popTopOracle(train *dataset.Dataset, u types.UserID, n int) types.TopNSet {
	pop := recommender.ScorerTopN{Scorer: recommender.NewPop(train)}
	return pop.Recommend(u, n, train.AppendCandidates(u, nil))
}

// TestPopAccuracyMatchesOracle checks every user's indicators, bulk in both
// widths and pointwise, against popTopOracle. The small fixture has tied
// counts (items 0–1 at three ratings, 2–4 at two, 5–7 at one), a repeated
// rating (user 1's of item 1), a user with fewer candidates than N (user 0),
// a user with no ratings (user 3, a gap in the identifiers) and one past the
// train set; every fixture is also read into an out shorter than its catalog.
func TestPopAccuracyMatchesOracle(t *testing.T) {
	var ratings []types.Rating
	rate := func(u types.UserID, items ...types.ItemID) {
		for _, i := range items {
			ratings = append(ratings, types.Rating{User: u, Item: i, Value: 3})
		}
	}
	rate(0, 0, 1, 2, 3, 4, 5)
	rate(1, 0, 1, 1)
	rate(2, 2, 3, 4)
	rate(4, 0, 6)
	rate(5, 7)
	small := dataset.FromRatings("ties", ratings)
	if !slices.Equal(small.PopularityVector(), []int{3, 3, 2, 2, 2, 1, 1, 1}) || len(small.UserItemsSorted(3)) != 0 {
		t.Fatal("fixture is not what the test describes")
	}
	for _, tc := range []struct {
		name  string
		train *dataset.Dataset
		ns    []int
	}{
		{"ties", small, []int{1, 3, 5, 10}},
		{"synth", testSplit(t).Train, []int{1, 5, 20}},
	} {
		numItems := tc.train.NumItems()
		out64, out32 := make([]float64, numItems), make([]float32, numItems)
		short := make([]float64, numItems/2)
		for _, n := range tc.ns {
			pa := popArec(tc.train, n)
			for u := range types.UserID(tc.train.NumUsers() + 1) {
				want := make([]float64, numItems)
				for _, i := range popTopOracle(tc.train, u, n) {
					want[i] = 1
				}
				// Stale values the fill must clear.
				for i := range out64 {
					out64[i], out32[i] = 1, 1
				}
				for i := range short {
					short[i] = 1
				}
				pa.AccuracyScores(u, out64)
				pa.AccuracyScores32(u, out32)
				pa.AccuracyScores(u, short)
				for i := range numItems {
					if out64[i] != want[i] || float64(out32[i]) != want[i] || pa.AccuracyScore(u, types.ItemID(i)) != want[i] {
						t.Fatalf("%s, N=%d, user %d, item %d: got %v/%v/%v, want %v", tc.name, n, u, i,
							out64[i], out32[i], pa.AccuracyScore(u, types.ItemID(i)), want[i])
					}
				}
				if !slices.Equal(short, want[:len(short)]) {
					t.Fatalf("%s, N=%d, user %d: a short out reads %v, want %v", tc.name, n, u, short, want[:len(short)])
				}
			}
		}
	}
}

func TestPopAccuracyConcurrentReadsAgree(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	pa := popArec(train, 5)
	want := popArec(train, 5)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			out := make([]float64, train.NumItems())
			items := make([]types.ItemID, 16)
			for trial := 0; trial < 200; trial++ {
				u := types.UserID(rng.Intn(train.NumUsers()))
				for k := range items {
					items[k] = types.ItemID(rng.Intn(train.NumItems()))
				}
				pa.AccuracyScores(u, out)
				for _, i := range items {
					if out[i] != want.AccuracyScore(u, i) {
						select {
						case errs <- "concurrent bulk score diverged":
						default:
						}
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
