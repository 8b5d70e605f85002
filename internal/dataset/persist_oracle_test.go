package dataset

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/types"
)

// oracleEncodeSnapshot is EncodeSnapshot as it was before the rating
// columns left the gob envelope: version 1, the columns as gob fields. It is
// kept to write that layout, which DecodeSnapshot still reads.
func oracleEncodeSnapshot(d *Dataset, w io.Writer) error {
	snap := datasetSnapshot{
		Version:  datasetGobColumns,
		Name:     d.name,
		UserKeys: d.users.Keys(),
		ItemKeys: d.items.Keys(),
		Users:    make([]types.UserID, len(d.ratings)),
		Items:    make([]types.ItemID, len(d.ratings)),
		Values:   make([]float64, len(d.ratings)),
	}
	for k, r := range d.ratings {
		snap.Users[k] = r.User
		snap.Items[k] = r.Item
		snap.Values[k] = r.Value
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// oracleBuildIndexes is buildIndexes as it was before the counting pass:
// every rating appended to its user's and its item's own growing slice.
func oracleBuildIndexes(d *Dataset) {
	d.byUser = newPaged[[]int](d.users.Len())
	d.byItem = newPaged[[]int](d.items.Len())
	for idx, r := range d.ratings {
		byUser, byItem := d.byUser.slot(int(r.User)), d.byItem.slot(int(r.Item))
		*byUser = append(*byUser, idx)
		*byItem = append(*byItem, idx)
	}
	d.sortedItemsByUser = newPaged[[]types.ItemID](d.byUser.n)
	for u := 0; u < d.byUser.n; u++ {
		if idxs := d.byUser.at(u); len(idxs) > 0 {
			*d.sortedItemsByUser.slot(u) = d.sortedItems(idxs)
		}
	}
}

// assertSameDataset requires got to equal want bit for bit: name, key
// tables, every rating (values compared as bits) and every index entry,
// nil where want's is nil.
func assertSameDataset(t *testing.T, label string, got, want *Dataset) {
	t.Helper()
	if got.name != want.name || !slices.Equal(got.users.Keys(), want.users.Keys()) || !slices.Equal(got.items.Keys(), want.items.Keys()) {
		t.Fatalf("%s: name or key tables differ", label)
	}
	if len(got.ratings) != len(want.ratings) {
		t.Fatalf("%s: %d ratings, want %d", label, len(got.ratings), len(want.ratings))
	}
	for k, r := range got.ratings {
		w := want.ratings[k]
		if r.User != w.User || r.Item != w.Item || math.Float64bits(r.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: rating %d is %+v, want %+v", label, k, r, w)
		}
	}
	sameIndex(t, label+" byUser", got.byUser, want.byUser)
	sameIndex(t, label+" byItem", got.byItem, want.byItem)
	sameIndex(t, label+" sortedItemsByUser", got.sortedItemsByUser, want.sortedItemsByUser)
}

func sameIndex[E comparable](t *testing.T, label string, got, want paged[[]E]) {
	t.Helper()
	if got.n != want.n {
		t.Fatalf("%s: %d entries, want %d", label, got.n, want.n)
	}
	for k := 0; k < want.n; k++ {
		g, w := got.at(k), want.at(k)
		if !slices.Equal(g, w) || (g == nil) != (w == nil) {
			t.Fatalf("%s: entry %d is %v, want %v", label, k, g, w)
		}
	}
}

// oracleDataset is a dataset with a user who rated one item twice, users
// and an item with no rating, and a −0 and the largest float among the
// values.
func oracleDataset() *Dataset {
	rng := rand.New(rand.NewSource(41))
	b := NewBuilder("oracle", 0)
	for k := 0; k < 3000; k++ {
		b.Add(fmt.Sprintf("u-%d", rng.Intn(150)), fmt.Sprintf("i-%d", rng.Intn(90)), float64(1+rng.Intn(5)))
	}
	b.Add("twice", "i-0", 4)
	b.Add("twice", "i-0", 2)
	b.Add("twice", "i-3", math.MaxFloat64)
	b.Add("signed", "i-1", math.Copysign(0, -1))
	b.users.Intern("no-ratings")
	b.items.Intern("never-rated")
	return b.Build()
}

// TestCountingIndexesMatchAppendOracle: the counting build gives every
// user and item the index the append build gave it — the same entries in
// the same order, nil for no ratings — on the oracle dataset and on every
// train and test side of a split.
func TestCountingIndexesMatchAppendOracle(t *testing.T) {
	d := oracleDataset()
	split := d.SplitByUser(0.8, rand.New(rand.NewSource(3)))
	for label, got := range map[string]*Dataset{"build": d, "train": split.Train, "test": split.Test} {
		want := &Dataset{name: got.name, ratings: got.ratings, users: got.users, items: got.items}
		oracleBuildIndexes(want)
		assertSameDataset(t, label, got, want)
	}
	twice, _ := d.users.Lookup("twice")
	if got := d.UserRatings(types.UserID(twice)); len(got) != 3 || len(d.UserItemsSorted(types.UserID(twice))) != 2 {
		t.Fatalf("the user who rated i-0 twice has ratings %v and adjacency %v", got, d.UserItemsSorted(types.UserID(twice)))
	}
}

// TestExtendAfterBuildLeavesNeighboursAlone: every range of a fresh build
// shares one backing array with its neighbours. An Extend straight after
// the build that touches every user and item, twice for some, must append
// into each range's own headroom or copy the range, so every view the built
// dataset handed out stays as it was, and the successor's indexes recount
// from its ratings.
func TestExtendAfterBuildLeavesNeighboursAlone(t *testing.T) {
	d := oracleDataset()
	views := takeViews(d)
	var batch []types.Rating
	for u := 0; u < d.NumUsers(); u++ {
		batch = append(batch, types.Rating{User: types.UserID(u), Item: types.ItemID(u % d.NumItems()), Value: 5})
	}
	for i := 0; i < d.NumItems(); i++ {
		batch = append(batch, types.Rating{User: types.UserID(i % d.NumUsers()), Item: types.ItemID(i), Value: 1})
	}
	child := d.Extend(batch)
	views.assertUnchanged(t, "extend after build")
	assertIndexesMatchRatings(t, d)
	assertIndexesMatchRatings(t, child)
}

// TestDecodeMatchesGobColumnsOracle: a dataset decoded from the column
// layout equals, bit for bit, the one decoded from the gob layout it
// replaced, and both equal the dataset that was saved.
func TestDecodeMatchesGobColumnsOracle(t *testing.T) {
	d := oracleDataset()
	var columns, gobbed bytes.Buffer
	if err := d.EncodeSnapshot(&columns); err != nil {
		t.Fatal(err)
	}
	if err := oracleEncodeSnapshot(d, &gobbed); err != nil {
		t.Fatal(err)
	}
	fromColumns, err := DecodeSnapshot(columns.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromGob, err := DecodeSnapshot(gobbed.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, "columns vs gob", fromColumns, fromGob)
	assertSameDataset(t, "columns vs saved", fromColumns, d)

	for _, bad := range [][]byte{columns.Bytes()[:columns.Len()-1], append(slices.Clone(columns.Bytes()), 0)} {
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("a %d-byte payload of a %d-byte snapshot decoded", len(bad), columns.Len())
		}
	}
}
