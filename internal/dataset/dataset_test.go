package dataset

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ganc/internal/types"
)

// tinyDataset builds a small deterministic dataset used across tests:
// 4 users, 6 items, ratings chosen so that item 0 is clearly the head item.
func tinyDataset() *Dataset {
	b := NewBuilder("tiny", 16)
	add := func(u, i string, v float64) { b.Add(u, i, v) }
	add("u0", "i0", 5)
	add("u0", "i1", 4)
	add("u0", "i2", 3)
	add("u1", "i0", 4)
	add("u1", "i1", 2)
	add("u2", "i0", 5)
	add("u2", "i3", 1)
	add("u3", "i0", 3)
	add("u3", "i4", 4)
	add("u3", "i5", 5)
	return b.Build()
}

func TestBuilderBasicCounts(t *testing.T) {
	d := tinyDataset()
	if d.NumUsers() != 4 {
		t.Fatalf("NumUsers = %d, want 4", d.NumUsers())
	}
	if d.NumItems() != 6 {
		t.Fatalf("NumItems = %d, want 6", d.NumItems())
	}
	if d.NumRatings() != 10 {
		t.Fatalf("NumRatings = %d, want 10", d.NumRatings())
	}
}

func TestUserAndItemIndexes(t *testing.T) {
	d := tinyDataset()
	u0 := types.UserID(0)
	items := d.UserItems(u0)
	if len(items) != 3 {
		t.Fatalf("u0 rated %d items, want 3", len(items))
	}
	set := d.UserItemSet(u0)
	if _, ok := set[0]; !ok {
		t.Fatal("u0 item set missing item 0")
	}
	if d.ItemPopularity(0) != 4 {
		t.Fatalf("item 0 popularity = %d, want 4", d.ItemPopularity(0))
	}
	if got := len(d.ItemRatings(0)); got != 4 {
		t.Fatalf("item 0 has %d ratings, want 4", got)
	}
	if d.ItemPopularity(5) != 1 {
		t.Fatalf("item 5 popularity = %d, want 1", d.ItemPopularity(5))
	}
	// Out-of-range lookups return empty, not panic.
	if d.UserRatings(types.UserID(99)) != nil {
		t.Fatal("out-of-range user returned ratings")
	}
	if d.ItemRatings(types.ItemID(-3)) != nil {
		t.Fatal("negative item returned ratings")
	}
}

func TestUserRatingLookup(t *testing.T) {
	d := tinyDataset()
	v, ok := d.UserRating(0, 1)
	if !ok || v != 4 {
		t.Fatalf("UserRating(0,1) = %v,%v", v, ok)
	}
	if _, ok := d.UserRating(0, 5); ok {
		t.Fatal("UserRating returned value for unrated pair")
	}
}

func TestDensityAndMeanRating(t *testing.T) {
	d := tinyDataset()
	wantDensity := 10.0 / (4.0 * 6.0)
	if got := d.Density(); got < wantDensity-1e-12 || got > wantDensity+1e-12 {
		t.Fatalf("Density = %v, want %v", got, wantDensity)
	}
	if got := d.MeanRating(); got != 3.6 {
		t.Fatalf("MeanRating = %v, want 3.6", got)
	}
}

func TestPopularityVector(t *testing.T) {
	d := tinyDataset()
	pops := d.PopularityVector()
	if pops[0] != 4 || pops[1] != 2 || pops[5] != 1 {
		t.Fatalf("PopularityVector = %v", pops)
	}
}

func TestLongTailParetoCut(t *testing.T) {
	// 10 ratings total. Head budget at 80% = 8 ratings. Sorted by popularity:
	// i0(4), i1(2), i2(1), i3(1), i4(1), i5(1). Cumulative: 4, 6, 7, 8 → the
	// head is {i0,i1,i2,i3} (cum reaches 8 after i3), leaving {i4,i5} as tail.
	d := tinyDataset()
	tail := d.LongTail(0.20)
	if len(tail) != 2 {
		t.Fatalf("tail size = %d, want 2 (tail=%v)", len(tail), tail)
	}
	if _, ok := tail[4]; !ok {
		t.Fatal("item 4 should be long-tail")
	}
	if _, ok := tail[0]; ok {
		t.Fatal("item 0 (most popular) must not be long-tail")
	}
}

func TestLongTailBoundaryShares(t *testing.T) {
	d := tinyDataset()
	if got := d.LongTail(0); len(got) != 0 {
		t.Fatalf("tailShare=0 should give empty tail, got %d items", len(got))
	}
	if got := d.LongTail(1); len(got) != d.NumItems() {
		t.Fatalf("tailShare=1 should include every item, got %d", len(got))
	}
	// Out-of-range values are clamped rather than panicking.
	if got := d.LongTail(-0.5); len(got) != 0 {
		t.Fatalf("negative share should clamp to 0, got %d", len(got))
	}
	if got := d.LongTail(3); len(got) != d.NumItems() {
		t.Fatalf("share>1 should clamp to 1, got %d", len(got))
	}
}

func TestLongTailCoversAllUnratedItems(t *testing.T) {
	// Items with no ratings must always land in the tail.
	b := NewBuilder("gap", 4)
	b.AddIDs(0, 0, 5)
	b.AddIDs(0, 3, 5) // items 1 and 2 exist but have no ratings? AddIDs creates them
	d := b.Build()
	tail := d.LongTail(0.2)
	if _, ok := tail[1]; !ok {
		t.Fatal("unrated item 1 should be in the long tail")
	}
	if _, ok := tail[2]; !ok {
		t.Fatal("unrated item 2 should be in the long tail")
	}
}

func TestComputeStats(t *testing.T) {
	d := tinyDataset()
	s := d.ComputeStats()
	if s.NumRatings != 10 || s.NumUsers != 4 || s.NumItems != 6 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.MinUserDeg != 2 || s.MaxUserDeg != 3 {
		t.Fatalf("user degree range wrong: %+v", s)
	}
	if s.DensityPct < 41 || s.DensityPct > 42 {
		t.Fatalf("DensityPct = %v", s.DensityPct)
	}
	if s.LongTailPct < 33 || s.LongTailPct > 34 {
		t.Fatalf("LongTailPct = %v", s.LongTailPct)
	}
}

func TestSplitByUserPreservesAllRatings(t *testing.T) {
	d := tinyDataset()
	sp := d.SplitByUser(0.5, rand.New(rand.NewSource(42)))
	if sp.Train.NumRatings()+sp.Test.NumRatings() != d.NumRatings() {
		t.Fatalf("split lost ratings: %d + %d != %d",
			sp.Train.NumRatings(), sp.Test.NumRatings(), d.NumRatings())
	}
	// Identifier spaces are shared.
	if sp.Train.NumUsers() != d.NumUsers() || sp.Test.NumItems() != d.NumItems() {
		t.Fatal("split children must share parent identifier spaces")
	}
}

func TestSplitByUserRespectsKappaPerUser(t *testing.T) {
	// Build a user with exactly 10 ratings and check the per-user counts.
	b := NewBuilder("k", 20)
	for i := 0; i < 10; i++ {
		b.AddIDs(0, types.ItemID(i), 4)
	}
	d := b.Build()
	sp := d.SplitByUser(0.8, rand.New(rand.NewSource(1)))
	if got := len(sp.Train.UserRatings(0)); got != 8 {
		t.Fatalf("train ratings for user = %d, want 8", got)
	}
	if got := len(sp.Test.UserRatings(0)); got != 2 {
		t.Fatalf("test ratings for user = %d, want 2", got)
	}
}

func TestSplitByUserSingleRatingStaysInTrain(t *testing.T) {
	b := NewBuilder("single", 1)
	b.AddIDs(0, 0, 5)
	d := b.Build()
	sp := d.SplitByUser(0.5, rand.New(rand.NewSource(1)))
	if sp.Train.NumRatings() != 1 || sp.Test.NumRatings() != 0 {
		t.Fatalf("single rating should stay in train: train=%d test=%d",
			sp.Train.NumRatings(), sp.Test.NumRatings())
	}
}

func TestSplitByUserPanicsOnBadKappa(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kappa=0 did not panic")
		}
	}()
	tinyDataset().SplitByUser(0, nil)
}

func TestSplitPropertyNoRatingInBothSets(t *testing.T) {
	// Property: a (user,item) pair never appears in both train and test.
	f := func(seed int64) bool {
		d := tinyDataset()
		sp := d.SplitByUser(0.5, rand.New(rand.NewSource(seed)))
		seen := make(map[[2]int32]bool)
		for _, r := range sp.Train.Ratings() {
			seen[[2]int32{int32(r.User), int32(r.Item)}] = true
		}
		for _, r := range sp.Test.Ratings() {
			if seen[[2]int32{int32(r.User), int32(r.Item)}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSubsetUsers(t *testing.T) {
	d := tinyDataset()
	sub := d.SubsetUsers([]types.UserID{0, 3})
	if sub.NumRatings() != 6 {
		t.Fatalf("subset ratings = %d, want 6", sub.NumRatings())
	}
	if len(sub.UserRatings(1)) != 0 {
		t.Fatal("excluded user still has ratings in subset")
	}
}

func TestRelevantTestItems(t *testing.T) {
	d := tinyDataset()
	rel := RelevantTestItems(d, 4.0)
	// u0 rated i0=5, i1=4 (relevant), i2=3 (not); u2 rated i0=5, i3=1.
	if len(rel[0]) != 2 {
		t.Fatalf("u0 relevant items = %v", rel[0])
	}
	if len(rel[2]) != 1 {
		t.Fatalf("u2 relevant items = %v", rel[2])
	}
	if _, ok := rel[99]; ok {
		t.Fatal("phantom user has relevant items")
	}
}

func TestFromRatings(t *testing.T) {
	rs := []types.Rating{
		{User: 0, Item: 0, Value: 5},
		{User: 1, Item: 2, Value: 3},
	}
	d := FromRatings("fr", rs)
	if d.NumUsers() != 2 || d.NumItems() != 3 || d.NumRatings() != 2 {
		t.Fatalf("FromRatings dims: %d users %d items %d ratings",
			d.NumUsers(), d.NumItems(), d.NumRatings())
	}
}

func TestReadRatingsCSVWithHeader(t *testing.T) {
	csv := "userId,movieId,rating,timestamp\n1,10,4.0,111\n1,20,3.5,112\n2,10,5.0,113\n"
	d, err := ReadRatings(strings.NewReader(csv), LoadOptions{Name: "csv"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 3 || d.NumUsers() != 2 || d.NumItems() != 2 {
		t.Fatalf("csv parse: %d ratings %d users %d items", d.NumRatings(), d.NumUsers(), d.NumItems())
	}
}

func TestReadRatingsMovieLensDat(t *testing.T) {
	dat := "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978300761\n"
	d, err := ReadRatings(strings.NewReader(dat), LoadOptions{Name: "dat"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 3 {
		t.Fatalf("dat parse ratings = %d", d.NumRatings())
	}
	if v, ok := d.UserRating(0, 0); !ok || v != 5 {
		t.Fatalf("first rating value = %v, %v", v, ok)
	}
}

func TestReadRatingsTabSeparated(t *testing.T) {
	tsv := "196\t242\t3\t881250949\n186\t302\t3\t891717742\n"
	d, err := ReadRatings(strings.NewReader(tsv), LoadOptions{Name: "tsv"})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 2 {
		t.Fatalf("tsv parse ratings = %d", d.NumRatings())
	}
}

func TestReadRatingsRescale(t *testing.T) {
	// MovieTweetings-style 0..10 scale rescaled onto [1,5].
	csv := "u1,i1,0\nu1,i2,10\nu2,i1,5\n"
	target := [2]float64{1, 5}
	d, err := ReadRatings(strings.NewReader(csv), LoadOptions{Name: "mt", RescaleTo: &target})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.UserRating(0, 0); v != 1 {
		t.Fatalf("min rating rescaled to %v, want 1", v)
	}
	if v, _ := d.UserRating(0, 1); v != 5 {
		t.Fatalf("max rating rescaled to %v, want 5", v)
	}
	if v, _ := d.UserRating(1, 0); v != 3 {
		t.Fatalf("mid rating rescaled to %v, want 3", v)
	}
}

func TestReadRatingsMinRatingsFilter(t *testing.T) {
	csv := "a,i1,4\na,i2,4\na,i3,4\nb,i1,2\n"
	d, err := ReadRatings(strings.NewReader(csv), LoadOptions{Name: "f", MinRatingsPerUser: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 3 {
		t.Fatalf("filter kept %d ratings, want 3", d.NumRatings())
	}
	if d.NumUsers() != 1 {
		t.Fatalf("filter kept %d users, want 1", d.NumUsers())
	}
}

func TestReadRatingsMaxRatings(t *testing.T) {
	csv := "a,i1,4\na,i2,4\nb,i1,2\nb,i2,1\n"
	d, err := ReadRatings(strings.NewReader(csv), LoadOptions{MaxRatings: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRatings() != 2 {
		t.Fatalf("MaxRatings kept %d", d.NumRatings())
	}
}

func TestReadRatingsEmptyInputFails(t *testing.T) {
	if _, err := ReadRatings(strings.NewReader("\n# comment only\n"), LoadOptions{}); err == nil {
		t.Fatal("empty input did not error")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := tinyDataset()
	var sb strings.Builder
	if err := WriteRatings(&sb, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRatings(strings.NewReader(sb.String()), LoadOptions{Name: "rt"})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRatings() != d.NumRatings() || back.NumUsers() != d.NumUsers() || back.NumItems() != d.NumItems() {
		t.Fatalf("round trip mismatch: %d/%d ratings, %d/%d users, %d/%d items",
			back.NumRatings(), d.NumRatings(), back.NumUsers(), d.NumUsers(), back.NumItems(), d.NumItems())
	}
	// Every original rating survives with its value.
	for _, r := range d.Ratings() {
		uKey := d.UserInterner().Key(int32(r.User))
		iKey := d.ItemInterner().Key(int32(r.Item))
		bu, _ := back.UserInterner().Lookup(uKey)
		bi, _ := back.ItemInterner().Lookup(iKey)
		if v, ok := back.UserRating(types.UserID(bu), types.ItemID(bi)); !ok || v != r.Value {
			t.Fatalf("rating %v lost in round trip (got %v, %v)", r, v, ok)
		}
	}
}
