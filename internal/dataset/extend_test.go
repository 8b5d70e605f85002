package dataset

import (
	"slices"
	"sync"
	"testing"

	"ganc/internal/types"
)

// extendParent builds a 3-user × 4-item dataset whose rating slice has spare
// capacity, the shape an ingestion stream's dataset has after its first
// batch: the next Extend has a reserved tail to append into.
func extendParent() *Dataset {
	b := NewBuilder("extend", 64)
	for k := 0; k < 10; k++ {
		b.AddIDs(types.UserID(k%3), types.ItemID(k%4), float64(1+k%5))
	}
	return b.Build()
}

func assertRatings(t *testing.T, label string, got, want []types.Rating) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: ratings are %v, want %v", label, got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: Ratings() has capacity %d beyond its length %d: an append would write into the shared backing array", label, cap(got), len(got))
	}
}

// TestExtendForksAreIndependent: the first Extend of a dataset takes the
// reserved tail of the shared rating array, a second Extend of the same
// parent must not write there too. Both children — and a grandchild through
// the tail-sharing line — keep exactly their own ratings, the parent keeps
// its own, and no Ratings() view exposes capacity to append into.
func TestExtendForksAreIndependent(t *testing.T) {
	parent := extendParent()
	before := append([]types.Rating(nil), parent.Ratings()...)
	a := []types.Rating{{User: 0, Item: 3, Value: 5}, {User: 2, Item: 0, Value: 1}}
	b := []types.Rating{{User: 1, Item: 1, Value: 2}}
	c := []types.Rating{{User: 2, Item: 2, Value: 4}}

	first := parent.Extend(a)
	fork := parent.Extend(b)
	grandchild := first.Extend(c)

	assertRatings(t, "parent", parent.Ratings(), before)
	assertRatings(t, "first child", first.Ratings(), append(append([]types.Rating(nil), before...), a...))
	assertRatings(t, "fork", fork.Ratings(), append(append([]types.Rating(nil), before...), b...))
	assertRatings(t, "grandchild", grandchild.Ratings(), append(append(append([]types.Rating(nil), before...), a...), c...))
	if &first.Ratings()[0] != &parent.Ratings()[0] {
		t.Fatal("the first Extend copied the parent's ratings instead of appending into the reserved tail")
	}
	if &fork.Ratings()[0] == &parent.Ratings()[0] {
		t.Fatal("a second Extend of the same parent shares its rating array: two successors would overwrite each other's tail")
	}
	// The rating indexes grow in place along the tail-owning line too, so
	// interleave the two lineages on the same users and items: a successor
	// of the fork must not append into an index array the first line owns.
	forkChild := fork.Extend(a)
	greatGrandchild := grandchild.Extend(b)
	forkGrandchild := forkChild.Extend(c)
	for _, d := range []*Dataset{parent, first, fork, grandchild, forkChild, greatGrandchild, forkGrandchild} {
		assertIndexesMatchRatings(t, d)
	}
}

// assertIndexesMatchRatings recounts the per-user and per-item rating indexes
// and the sorted adjacency from the rating slice.
func assertIndexesMatchRatings(t *testing.T, d *Dataset) {
	t.Helper()
	byUser := make(map[types.UserID][]int)
	byItem := make(map[types.ItemID][]int)
	for idx, r := range d.Ratings() {
		byUser[r.User] = append(byUser[r.User], idx)
		byItem[r.Item] = append(byItem[r.Item], idx)
	}
	for u := 0; u < d.NumUsers(); u++ {
		got := d.UserRatings(types.UserID(u))
		if !slices.Equal(got, byUser[types.UserID(u)]) || cap(got) != len(got) {
			t.Fatalf("%d ratings: index of user %d is %v (cap %d), a recount gives %v", d.NumRatings(), u, got, cap(got), byUser[types.UserID(u)])
		}
		seen := make(map[types.ItemID]bool)
		for _, idx := range got {
			seen[d.Rating(idx).Item] = true
		}
		sorted := d.UserItemsSorted(types.UserID(u))
		if len(sorted) != len(seen) {
			t.Fatalf("%d ratings: user %d has %d distinct items but an adjacency of %v", d.NumRatings(), u, len(seen), sorted)
		}
		for k, it := range sorted {
			if !seen[it] || (k > 0 && sorted[k-1] >= it) {
				t.Fatalf("%d ratings: adjacency of user %d is %v", d.NumRatings(), u, sorted)
			}
		}
	}
	for i := 0; i < d.NumItems(); i++ {
		got := d.ItemRatings(types.ItemID(i))
		if !slices.Equal(got, byItem[types.ItemID(i)]) || cap(got) != len(got) {
			t.Fatalf("%d ratings: index of item %d is %v (cap %d), a recount gives %v", d.NumRatings(), i, got, cap(got), byItem[types.ItemID(i)])
		}
	}
}

// TestExtendRacesCleanWithParentReaders: the serving layer keeps reading a
// dataset while ingestion extends it, and keeps reading each retired
// generation while later ones are extended further along the same array.
// Run under -race.
func TestExtendRacesCleanWithParentReaders(t *testing.T) {
	parent := extendParent()
	want := parent.MeanRating()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	reading := make(chan struct{}, 3)
	read := func(d *Dataset, mean float64) {
		defer readers.Done()
		for pass := 0; ; pass++ {
			if pass == 1 {
				reading <- struct{}{} // one full read done: the Extends may start
			}
			select {
			case <-stop:
				return
			default:
			}
			if got := d.MeanRating(); got != mean {
				t.Errorf("a reader saw mean rating %v, want %v: an Extend wrote inside its view", got, mean)
				return
			}
		}
	}
	readers.Add(2)
	go read(parent, want)
	go read(parent, want)
	<-reading
	<-reading

	cur := parent
	for k := 0; k < 40; k++ {
		cur = cur.Extend([]types.Rating{{User: types.UserID(k % 3), Item: types.ItemID(k % 4), Value: float64(1 + k%5)}})
		if k == 10 {
			readers.Add(1)
			go read(cur, cur.MeanRating())
		}
	}
	close(stop)
	readers.Wait()
	if cur.NumRatings() != parent.NumRatings()+40 {
		t.Fatalf("chain of 40 Extends holds %d ratings, want %d", cur.NumRatings(), parent.NumRatings()+40)
	}
}
