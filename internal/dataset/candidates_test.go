package dataset

import (
	"math/rand"
	"testing"

	"ganc/internal/types"
)

// randomDataset builds a dataset with random (possibly duplicate) ratings.
func randomDataset(t *testing.T, numUsers, numItems, numRatings int, seed int64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ratings := make([]types.Rating, 0, numRatings+numUsers+numItems)
	// Anchor the identifier spaces so every index exists.
	ratings = append(ratings, types.Rating{User: types.UserID(numUsers - 1), Item: types.ItemID(numItems - 1), Value: 3})
	for k := 0; k < numRatings; k++ {
		ratings = append(ratings, types.Rating{
			User:  types.UserID(rng.Intn(numUsers)),
			Item:  types.ItemID(rng.Intn(numItems)),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	return FromRatings("rand", ratings)
}

func TestUserItemsSortedIsSortedAndDeduplicated(t *testing.T) {
	d := randomDataset(t, 20, 40, 300, 1)
	for u := 0; u < d.NumUsers(); u++ {
		uid := types.UserID(u)
		sorted := d.UserItemsSorted(uid)
		seen := map[types.ItemID]bool{}
		for k, it := range sorted {
			if k > 0 && sorted[k-1] >= it {
				t.Fatalf("user %d: items not strictly ascending: %v", u, sorted)
			}
			seen[it] = true
		}
		// Exactly the distinct items of the user's profile.
		want := d.UserItemSet(uid)
		if len(seen) != len(want) {
			t.Fatalf("user %d: sorted adjacency has %d items, set has %d", u, len(seen), len(want))
		}
		for it := range want {
			if !seen[it] {
				t.Fatalf("user %d: item %d missing from sorted adjacency", u, it)
			}
		}
	}
}

func TestAppendCandidatesMatchesSetComplement(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d := randomDataset(t, 15, 60, 250, seed)
		var buf []types.ItemID
		for u := 0; u < d.NumUsers(); u++ {
			uid := types.UserID(u)
			buf = d.AppendCandidates(uid, buf[:0])
			exclude := d.UserItemSet(uid)
			// Candidates must be exactly the complement, in ascending order.
			want := make([]types.ItemID, 0, d.NumItems())
			for i := 0; i < d.NumItems(); i++ {
				if _, rated := exclude[types.ItemID(i)]; !rated {
					want = append(want, types.ItemID(i))
				}
			}
			if len(buf) != len(want) {
				t.Fatalf("seed %d user %d: got %d candidates, want %d", seed, u, len(buf), len(want))
			}
			for k := range want {
				if buf[k] != want[k] {
					t.Fatalf("seed %d user %d: candidate %d = %d, want %d", seed, u, k, buf[k], want[k])
				}
			}
		}
	}
}

func TestAppendCandidatesReusesBuffer(t *testing.T) {
	d := randomDataset(t, 8, 30, 100, 3)
	buf := make([]types.ItemID, 0, d.NumItems())
	ptr := &buf[:1][0]
	for u := 0; u < d.NumUsers(); u++ {
		buf = d.AppendCandidates(types.UserID(u), buf[:0])
		if len(buf) > 0 && &buf[0] != ptr {
			t.Fatal("AppendCandidates reallocated a buffer that had enough capacity")
		}
	}
}

func TestAppendCandidatesUnknownUserYieldsFullCatalog(t *testing.T) {
	d := randomDataset(t, 5, 12, 30, 4)
	got := d.AppendCandidates(types.UserID(99), nil)
	if len(got) != d.NumItems() {
		t.Fatalf("out-of-range user: got %d candidates, want the full catalog (%d)", len(got), d.NumItems())
	}
}
