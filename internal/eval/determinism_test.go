package eval

import (
	"math/rand"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/types"
)

// TestEvaluateIsDeterministicAcrossMapInstances pins the sorted-user
// iteration: two Recommendations maps with identical content but different
// insertion histories (and therefore different map iteration orders) must
// produce bitwise-identical reports — floating-point accumulation order is
// part of the output contract for comparison tables and golden tests.
func TestEvaluateIsDeterministicAcrossMapInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ratings []types.Rating
	const numUsers, numItems = 60, 120
	ratings = append(ratings, types.Rating{User: numUsers - 1, Item: numItems - 1, Value: 5})
	for k := 0; k < 2500; k++ {
		ratings = append(ratings, types.Rating{
			User:  types.UserID(rng.Intn(numUsers)),
			Item:  types.ItemID(rng.Intn(numItems)),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	d := dataset.FromRatings("determinism", ratings)
	sp := d.SplitByUser(0.7, rand.New(rand.NewSource(1)))
	ev := NewEvaluator(sp, 0)

	build := func(order []int) types.Recommendations {
		recs := make(types.Recommendations, numUsers)
		for _, u := range order {
			set := make(types.TopNSet, 0, 5)
			lrng := rand.New(rand.NewSource(int64(u) + 99))
			for len(set) < 5 {
				i := types.ItemID(lrng.Intn(numItems))
				if !set.Contains(i) {
					set = append(set, i)
				}
			}
			recs[types.UserID(u)] = set
		}
		return recs
	}
	forward := make([]int, numUsers)
	for u := range forward {
		forward[u] = u
	}
	shuffled := append([]int(nil), forward...)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

	repA := ev.Evaluate("algo", build(forward), 5)
	repB := ev.Evaluate("algo", build(shuffled), 5)
	if repA != repB {
		t.Fatalf("reports differ across map instances:\n%+v\n%+v", repA, repB)
	}
}
