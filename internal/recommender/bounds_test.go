package recommender

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/types"
)

// boundedTable is tableScorer32 with a catalog body and a bound row: each
// score plus one, or nothing when refuse is set.
type boundedTable struct {
	tableScorer32
	refuse bool
}

func (s boundedTable) ScoreCatalog32(u types.UserID, out []float32) {
	s.ScoreUser32(u, types.CatalogItems(len(out)), out)
}

func (s boundedTable) BoundCatalog32(u types.UserID, out []float32) bool {
	if s.refuse {
		return false
	}
	s.ScoreCatalog32(u, out)
	for i := range out {
		out[i]++
	}
	return true
}

// TestAccuracyBounds32: the normaliser hands out a bound row only for a range
// the table holds — never on a first touch, which needs every score and gets
// AccuracyScores32's scores and map — with the map AccuracyScores32 returns
// and the inner model as the list scorer; and never around a model without a
// bound row or one that refuses, nor for a range whose float32 map is not
// strictly increasing: those get the scores too.
func TestAccuracyBounds32(t *testing.T) {
	scores := []float64{1, 5, 3, 2, 4}
	inner := &boundedTable{tableScorer32: tableScorer32{tableScorer{scores}}}
	want := make([]float32, len(scores))
	wantMap := NewNormalizedScorer(inner, len(scores)).AccuracyScores32(0, want)
	n := NewNormalizedScorer(inner, len(scores))
	out := make([]float32, len(scores))
	if m, list := n.AccuracyBounds32(0, out); list != nil || m != wantMap || !slices.Equal(out, want) {
		t.Fatalf("a first touch: map %+v, scorer %v, out %v; want the scores %v, map %+v and no scorer", m, list, out, want, wantMap)
	}
	m, list := n.AccuracyBounds32(0, out)
	if m != wantMap || list != BulkScorer32(inner) {
		t.Fatalf("a held range: map %+v (AccuracyScores32's %+v), list scorer %v", m, wantMap, list)
	}
	for i, s := range want {
		if out[i] != s+1 {
			t.Fatalf("bound row %v, scores %v", out, want)
		}
	}
	for name, inner := range map[string]Scorer{
		"no bound row":         tableScorer32{tableScorer{scores}},
		"refuses":              boundedTable{tableScorer32{tableScorer{scores}}, true},
		"span 0":               boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{2, 2, 2}}}},
		"infinite minimum":     boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{math.Inf(-1), 2, 3}}}},
		"infinite span":        boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{-3e38, 3e38}}}},
		"scale past float32":   boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{0, 1e-45}}}},
		"not a number extreme": boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{math.NaN(), 1, 2}}}},
	} {
		var items int
		switch s := inner.(type) {
		case tableScorer32:
			items = len(s.scores)
		case boundedTable:
			items = len(s.scores)
		}
		n := NewNormalizedScorer(inner, items)
		want := make([]float32, items)
		wantMap := n.AccuracyScores32(0, want)
		got := make([]float32, items)
		if m, list := n.AccuracyBounds32(0, got); list != nil || fmt.Sprint(m) != fmt.Sprint(wantMap) || !slices.EqualFunc(got, want, func(a, b float32) bool { return a == b || a != a && b != b }) {
			t.Errorf("%s: map %+v, scorer %v, out %v; want the scores %v, map %+v and no scorer", name, m, list, got, want, wantMap)
		}
	}
}

// TestTopHeapBarNeverFalls pins the property a bounded walk's exactness rests
// on: over any sequence of offers — ties, infinities and NaN among the scores,
// offered whatever the bar says — the bar Offer returns is −Inf until the heap
// is full, and from then on it never falls: each bar is at least the one
// before, or NaN for good once a NaN is the root.
func TestTopHeapBarNeverFalls(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	palette := []float32{0, 0.25, 0.5, 0.5, 1, -1, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(8)
		h := NewTopHeap[float32](n)
		var prev float32
		for k := 0; k < 40; k++ {
			bar := h.Offer(types.ItemID(rng.Intn(60)), palette[rng.Intn(len(palette))])
			switch {
			case k < n-1:
				if !math.IsInf(float64(bar), -1) {
					t.Fatalf("trial %d: bar %v before the heap of %d is full", trial, bar, n)
				}
			case k >= n && prev != prev:
				if bar == bar {
					t.Fatalf("trial %d offer %d: the bar left NaN for %v", trial, k, bar)
				}
			case k >= n && bar < prev:
				t.Fatalf("trial %d offer %d: the bar fell from %v to %v", trial, k, prev, bar)
			}
			prev = bar
		}
	}
}
