package types

import "testing"

func TestInternerAssignsDenseIndices(t *testing.T) {
	in := NewInterner(4)
	a := in.Intern("alice")
	b := in.Intern("bob")
	c := in.Intern("carol")
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("expected dense indices 0,1,2 got %d,%d,%d", a, b, c)
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
}

func TestInternerIsIdempotent(t *testing.T) {
	in := NewInterner(0)
	first := in.Intern("x")
	second := in.Intern("x")
	if first != second {
		t.Fatalf("re-interning returned a new index: %d vs %d", first, second)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
}

func TestInternerLookupAndKeyRoundTrip(t *testing.T) {
	in := NewInterner(0)
	keys := []string{"u1", "u2", "u3", "some-long-key"}
	for _, k := range keys {
		in.Intern(k)
	}
	for _, k := range keys {
		idx, ok := in.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%q) missing", k)
		}
		if got := in.Key(idx); got != k {
			t.Fatalf("Key(Lookup(%q)) = %q", k, got)
		}
	}
	if _, ok := in.Lookup("never-seen"); ok {
		t.Fatal("Lookup of unseen key reported ok")
	}
}

func TestInternerKeysReturnsCopy(t *testing.T) {
	in := NewInterner(0)
	in.Intern("a")
	in.Intern("b")
	ks := in.Keys()
	ks[0] = "mutated"
	if in.Key(0) != "a" {
		t.Fatal("Keys() exposed internal storage")
	}
}

func TestTopNSetContains(t *testing.T) {
	p := TopNSet{3, 1, 4, 1, 5}
	if !p.Contains(4) {
		t.Fatal("Contains(4) = false")
	}
	if p.Contains(9) {
		t.Fatal("Contains(9) = true")
	}
	var empty TopNSet
	if empty.Contains(0) {
		t.Fatal("empty set claims to contain 0")
	}
}

func TestTopNSetCloneIsIndependent(t *testing.T) {
	p := TopNSet{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestRecommendationsAggregates(t *testing.T) {
	recs := Recommendations{
		0: {1, 2, 3},
		1: {2, 3, 4},
		2: {},
	}
	if got := recs.NumUsers(); got != 2 {
		t.Fatalf("NumUsers = %d, want 2 (empty sets excluded)", got)
	}
	distinct := recs.DistinctItems()
	if len(distinct) != 4 {
		t.Fatalf("DistinctItems = %d items, want 4", len(distinct))
	}
}

func TestRatingString(t *testing.T) {
	r := Rating{User: 3, Item: 7, Value: 4.5}
	if got := r.String(); got != "Rating{u=3 i=7 v=4.50}" {
		t.Fatalf("String() = %q", got)
	}
}
