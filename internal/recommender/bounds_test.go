package recommender

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/types"
)

// boundedTable is tableScorer32 with a catalog body and both bound rows: each
// score plus and minus one, or nothing when refuse is set.
type boundedTable struct {
	tableScorer32
	refuse bool
}

func (s boundedTable) ScoreCatalog32(u types.UserID, out []float32) {
	s.ScoreUser32(u, types.CatalogItems(len(out)), out)
}

func (s boundedTable) BoundCatalog32(u types.UserID, upper, lower []float32) bool {
	if s.refuse {
		return false
	}
	s.ScoreCatalog32(u, upper)
	for i := range upper {
		if lower != nil {
			lower[i] = upper[i] - 1
		}
		upper[i]++
	}
	return true
}

// TestAccuracyBounds32: the normaliser hands out a bound row, with the map
// AccuracyScores32 returns and the inner model as the list scorer. On a first
// touch it certifies the range — the items it lists hold their scores, the
// others their bounds, and the table then holds the range a fold over every
// score gives — and for a range the table holds the row is the bounds alone.
// Never around a model without a bound row or one that refuses, nor for a
// range whose float32 map is not strictly increasing or a NaN score: those
// get AccuracyScores32's scores and map.
func TestAccuracyBounds32(t *testing.T) {
	scores := []float64{1, 5, 3, 2, 4}
	inner := &boundedTable{tableScorer32: tableScorer32{tableScorer{scores}}}
	want := make([]float32, len(scores))
	full := NewNormalizedScorer(inner, len(scores))
	wantMap := full.AccuracyScores32(0, want)
	n := NewNormalizedScorer(inner, len(scores))
	out := make([]float32, len(scores))
	var sc BoundScratch
	m, list, done := n.AccuracyBounds32(0, out, &sc)
	if m != wantMap || list != BulkScorer32(inner) || len(done) == 0 || !slices.IsSorted(done) {
		t.Fatalf("a first touch: map %+v (AccuracyScores32's %+v), list scorer %v, scored %v", m, wantMap, list, done)
	}
	for i, s := range want {
		if b := out[i]; b != s+1 && !(slices.Contains(done, types.ItemID(i)) && b == s) {
			t.Fatalf("a first touch: row %v, scored %v, scores %v", out, done, want)
		}
	}
	if got, ref := n.ranges.byUser[0], full.ranges.byUser[0]; got != ref {
		t.Fatalf("a first touch stored %+v, a full fold %+v", got, ref)
	}
	m, list, done = n.AccuracyBounds32(0, out, &sc)
	if m != wantMap || list != BulkScorer32(inner) || done != nil {
		t.Fatalf("a held range: map %+v (AccuracyScores32's %+v), list scorer %v, scored %v", m, wantMap, list, done)
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
		for touch := 1; touch <= 2; touch++ {
			n := NewNormalizedScorer(inner, items)
			want := make([]float32, items)
			wantMap := n.AccuracyScores32(0, want)
			if touch == 1 {
				n = NewNormalizedScorer(inner, items)
			}
			got := make([]float32, items)
			if m, list, done := n.AccuracyBounds32(0, got, &sc); list != nil || done != nil || fmt.Sprint(m) != fmt.Sprint(wantMap) || !slices.EqualFunc(got, want, func(a, b float32) bool { return a == b || a != a && b != b }) {
				t.Errorf("%s, touch %d: map %+v, scorer %v, scored %v, out %v; want the scores %v, map %+v and no scorer", name, touch, m, list, done, got, want, wantMap)
			}
		}
	}
	// A NaN score inside the range has NaN bounds, which stop a first touch's
	// certification; a held range hands the row out, and a walk keeps a NaN
	// bound.
	nan := NewNormalizedScorer(boundedTable{tableScorer32: tableScorer32{tableScorer{[]float64{1, math.NaN(), 2}}}}, 3)
	got := make([]float32, 3)
	if _, list, _ := nan.AccuracyBounds32(0, got, &sc); list != nil || got[0] != 1 || got[1] == got[1] || got[2] != 2 {
		t.Errorf("a NaN score inside the range: scorer %v, out %v; want the scores and no scorer", list, got)
	}
}

// bandScorer is a bounded model read from fuzz bytes: a score table, and
// bound rows that widen each score by a slack of its own on either side. It
// records every item its list body scores.
type bandScorer struct {
	scores, upper, lower []float32
	asked                []types.ItemID
}

func (s *bandScorer) Name() string                                 { return "band" }
func (s *bandScorer) Score(_ types.UserID, i types.ItemID) float64 { return float64(s.scores[i]) }
func (s *bandScorer) ScoreUser32(_ types.UserID, items []types.ItemID, out []float32) {
	for k, i := range items {
		out[k] = s.scores[i]
	}
	s.asked = append(s.asked, items...)
}
func (s *bandScorer) ScoreCatalog32(_ types.UserID, out []float32) { copy(out, s.scores) }
func (s *bandScorer) BoundCatalog32(_ types.UserID, upper, lower []float32) bool {
	copy(upper, s.upper)
	if lower != nil {
		copy(lower, s.lower)
	}
	return true
}

// FuzzCertifiedRangeMatchesFold: a first touch's certified range is, bit for
// bit, the range one fold over every score gives — for scores from a palette
// that ties at the extremes and holds both zeros, both infinities, subnormals
// and NaN (which makes a bound NaN, and the certification refuse), bounds
// widened by slacks from nothing to infinite, and a table that is empty or
// holds the range over a prefix of the catalog, as a generation before the
// catalog grew leaves it. The certification scores each item at most once,
// and lists, in order, exactly the items it scored, whose row entries are
// then their scores; a span of 0 hands out no bound row.
func FuzzCertifiedRangeMatchesFold(f *testing.F) {
	f.Add([]byte{40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{200, 7, 0x11, 0x23, 0x35, 0x47, 0x59, 0x6b, 0x7d, 0x8f})
	f.Add([]byte{33, 20, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{90, 0, 3, 3, 3, 4, 3, 3, 4, 4, 3})
	f.Add([]byte{5, 2, 12, 13, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 2 {
			data = append(data, 0)
		}
		numItems, from := 1+int(data[0])%300, int(data[1])
		from %= numItems
		rest := data[2:]
		palette := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2.5, 2.5, -7, 1e-45, -1e-45,
			float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, 0.25, 0.5, float32(math.NaN()), 4}
		slacks := []float32{0, 1e-45, 1, 0.125, 1e30, float32(math.Inf(1)), 3, 0.5}
		s := &bandScorer{scores: make([]float32, numItems), upper: make([]float32, numItems), lower: make([]float32, numItems)}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for i := range s.scores {
			b := byte(rng.Intn(256))
			if i < len(rest) {
				b = rest[i]
			}
			v := palette[int(b)%len(palette)]
			if b < 128 && len(rest) > 0 {
				v = palette[int(rest[0])%len(palette)] // ties
			}
			s.scores[i] = v
			s.upper[i] = v + slacks[int(b>>4)%len(slacks)]
			s.lower[i] = v - slacks[int(b>>1)%len(slacks)]
		}
		// The full fold, in one scan and in the steps a grown catalog takes.
		whole := fold(scoreRange{}, s.scores)
		n := NewNormalizedScorer(s, numItems)
		if from > 0 {
			small := NewNormalizedScorer(s, from)
			small.AccuracyScores32(0, make([]float32, from))
			n = small.ForCatalog(numItems)
		}
		s.asked = nil
		out := make([]float32, numItems)
		m, list, done := n.AccuracyBounds32(0, out, &BoundScratch{})
		got := n.ranges.byUser[0]
		if math.Float64bits(got.min) != math.Float64bits(whole.min) && (got.min == got.min || whole.min == whole.min) ||
			math.Float64bits(got.max) != math.Float64bits(whole.max) && (got.max == got.max || whole.max == whole.max) || got.upTo != numItems {
			t.Fatalf("%d items, prefix %d: stored range %+v, one fold %+v (scores %v)", numItems, from, got, whole, s.scores)
		}
		if list == nil {
			if done != nil || whole.span() > 0 && map32(whole, nil).increasing() && !slices.ContainsFunc(s.upper[from:], func(b float32) bool { return b != b }) && !slices.ContainsFunc(s.lower[from:], func(b float32) bool { return b != b }) {
				t.Fatalf("%d items, prefix %d: no bound row (scored %v) for the range %+v", numItems, from, done, whole)
			}
			return
		}
		if m != map32(whole, nil) || !slices.IsSorted(done) || !slices.Equal(done, slices.Compact(slices.Sorted(slices.Values(s.asked)))) || len(done) != len(s.asked) {
			t.Fatalf("%d items, prefix %d: map %+v, scored %v, asked %v", numItems, from, m, done, s.asked)
		}
		for i := range out {
			want := s.upper[i]
			if slices.Contains(done, types.ItemID(i)) {
				want = s.scores[i]
			}
			if math.Float32bits(out[i]) != math.Float32bits(want) && (out[i] == out[i] || want == want) {
				t.Fatalf("%d items, prefix %d: row item %d is %v, want %v (scored %v)", numItems, from, i, out[i], want, done)
			}
		}
	})
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
