package recommender

import (
	"math"
	"sync"
	"testing"

	"ganc/internal/mf"
	"ganc/internal/types"
)

// The two-pass oracle: what the normaliser computed before a first touch
// scored the catalog once — the range from one bulk scan of the identity
// catalog through the inner model's float64 contract, then the items scored by
// a second call of their own and mapped. Kept here, in the arithmetic of each
// bulk method, as the reference the fused path (a turn's one catalog call,
// AccuracyScores and AccuracyScores32), the float32 item-slice path
// (RawScores32) and the pointwise one (AccuracyScore) are held to bit for bit.

func oracleRange(inner Scorer, u types.UserID, numItems int) scoreRange {
	scores := make([]float64, numItems)
	BulkScores(inner, u, catalogItems(numItems), scores)
	var r scoreRange
	for _, s := range scores {
		if r.upTo == 0 || s < r.min {
			r.min = s
		}
		if r.upTo == 0 || s > r.max {
			r.max = s
		}
		r.upTo++
	}
	return r
}

// oracleMap is the float64 min–max map of one raw score.
func oracleMap(r scoreRange, raw float64) float64 {
	switch v := (raw - r.min) / (r.max - r.min); {
	case r.max == r.min, v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

func oracleScoreUser(inner Scorer, u types.UserID, numItems int, items []types.ItemID) []float64 {
	r := oracleRange(inner, u, numItems)
	out := make([]float64, len(items))
	BulkScores(inner, u, items, out)
	for k := range out {
		out[k] = oracleMap(r, out[k])
	}
	return out
}

// oracleScore is the pointwise path: the inner model's float64 Score (which
// a factor model keeps exact) mapped through the same range.
func oracleScore(inner Scorer, u types.UserID, numItems int, items []types.ItemID) []float64 {
	r := oracleRange(inner, u, numItems)
	out := make([]float64, len(items))
	for k, i := range items {
		out[k] = oracleMap(r, inner.Score(u, i))
	}
	return out
}

// oracleScoreUser32 maps the inner model's float32 bulk scores in float32;
// around a model without that path it is the float64 oracle truncated.
func oracleScoreUser32(inner Scorer, u types.UserID, numItems int, items []types.ItemID) []float32 {
	out := make([]float32, len(items))
	bs32, ok := inner.(BulkScorer32)
	if !ok {
		for k, v := range oracleScoreUser(inner, u, numItems, items) {
			out[k] = float32(v)
		}
		return out
	}
	r := oracleRange(inner, u, numItems)
	bs32.ScoreUser32(u, items, out)
	min32, inv32 := float32(r.min), 1/float32(r.max-r.min)
	for k := range out {
		switch v := (out[k] - min32) * inv32; {
		case r.max == r.min, v < 0:
			out[k] = 0
		case v > 1:
			out[k] = 1
		default:
			out[k] = v
		}
	}
	return out
}

// mapAll takes scores through m in place.
func mapAll[T float32 | float64](m MinMax[T], scores []T) {
	for k, v := range scores {
		scores[k] = m.At(v)
	}
}

func assertBits64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: out[%d] = %v (%#x), two-pass oracle %v (%#x)", label, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

func assertBits32(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("%s: out[%d] = %v (%#x), two-pass oracle %v (%#x)", label, k, got[k], math.Float32bits(got[k]), want[k], math.Float32bits(want[k]))
		}
	}
}

// assertStoredRange checks the table entry of u against the oracle's range
// over a catalog of upTo items.
func assertStoredRange(t *testing.T, label string, n *NormalizedScorer, u types.UserID, upTo int) {
	t.Helper()
	n.ranges.mu.Lock()
	got, ok := n.ranges.byUser[u]
	n.ranges.mu.Unlock()
	want := oracleRange(n.inner, u, upTo)
	if !ok || math.Float64bits(got.min) != math.Float64bits(want.min) ||
		math.Float64bits(got.max) != math.Float64bits(want.max) || got.upTo != want.upTo {
		t.Fatalf("%s: stored range of user %d is %+v (present %v), two-pass oracle %+v", label, u, got, ok, want)
	}
}

// flatScorer scores every pair the same: a user's span is 0.
type flatScorer struct{}

func (flatScorer) Score(types.UserID, types.ItemID) float64 { return 2.5 }
func (flatScorer) Name() string                             { return "flat" }

// scoreOnceInners builds the inner models the fused path is checked over: a
// factor model, a model without a float32 path, a pointwise-only scorer and
// one whose span is 0.
func scoreOnceInners(t *testing.T) (map[string]Scorer, int, int) {
	t.Helper()
	d := bulkTestDataset(17)
	cfg := mf.DefaultRSVDConfig()
	cfg.Factors, cfg.Epochs, cfg.Seed = 8, 3, 17
	m, err := mf.TrainRSVD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inners := map[string]Scorer{"RSVD": m, "ItemAvg": NewItemAvg(d, 2), "plain": plainScorer{}, "flat": flatScorer{}}
	return inners, d.NumUsers(), d.NumItems()
}

// TestFusedFirstTouchMatchesTwoPassOracle: scoring the catalog once and
// folding the range from the same scores (AccuracyScores, AccuracyScores32)
// gives, bit for bit, the scores and the stored (min, max, upTo) of the
// two-pass computation, as the float32 item-slice and the pointwise paths do
// for every item-slice shape (the candidate shape, unsorted, short, empty,
// and holding identifiers outside the catalog) — for users the model has
// never seen, and again on the second touch, when the range is cached.
func TestFusedFirstTouchMatchesTwoPassOracle(t *testing.T) {
	inners, numUsers, numItems := scoreOnceInners(t)
	var candidates []types.ItemID
	for i := 0; i < numItems; i++ {
		if i%6 != 1 {
			candidates = append(candidates, types.ItemID(i))
		}
	}
	shapes := map[string][]types.ItemID{
		"candidates": candidates,
		"unsorted":   {9, 2, 31, 2, 0, types.ItemID(numItems - 1), 17},
		"short":      {5},
		"empty":      {},
		"outside":    {3, types.ItemID(numItems), 1, -1, types.ItemID(numItems + 40), 0},
	}
	for name, inner := range inners {
		for _, u := range []types.UserID{0, 7, types.UserID(numUsers + 3)} {
			label := name + "/catalog"
			want64 := oracleScoreUser(inner, u, numItems, catalogItems(numItems))
			want32 := oracleScoreUser32(inner, u, numItems, catalogItems(numItems))
			got64, got32 := make([]float64, numItems), make([]float32, numItems)
			n := NewNormalizedScorer(inner, numItems)
			for _, touch := range []string{"first touch", "second touch"} {
				mapAll(n.AccuracyScores(u, got64), got64)
				assertBits64(t, label+" AccuracyScores "+touch, got64, want64)
				assertStoredRange(t, label+" AccuracyScores "+touch, n, u, numItems)
			}
			n = NewNormalizedScorer(inner, numItems)
			for _, touch := range []string{"first touch", "second touch"} {
				mapAll(n.AccuracyScores32(u, got32), got32)
				assertBits32(t, label+" AccuracyScores32 "+touch, got32, want32)
				assertStoredRange(t, label+" AccuracyScores32 "+touch, n, u, numItems)
			}
		}
		for shape, items := range shapes {
			for _, u := range []types.UserID{0, 7, types.UserID(numUsers + 3)} {
				label := name + "/" + shape
				want64 := oracleScore(inner, u, numItems, items)
				want32 := oracleScoreUser32(inner, u, numItems, items)
				got64, got32 := make([]float64, len(items)), make([]float32, len(items))

				n := NewNormalizedScorer(inner, numItems)
				for _, touch := range []string{"first touch", "second touch"} {
					for k, i := range items {
						got64[k] = n.AccuracyScore(u, i)
					}
					assertBits64(t, label+" AccuracyScore "+touch, got64, want64)
					if len(items) > 0 { // no item, no range read
						assertStoredRange(t, label+" AccuracyScore "+touch, n, u, numItems)
					}
				}
				n = NewNormalizedScorer(inner, numItems)
				for _, touch := range []string{"first touch", "second touch"} {
					mapAll(n.RawScores32(u, items, got32), got32)
					assertBits32(t, label+" RawScores32 "+touch, got32, want32)
					assertStoredRange(t, label+" RawScores32 "+touch, n, u, numItems)
				}
			}
		}
	}
}

// TestFusedFirstTouchKeepsRangeTableRules: a turn's one catalog call scores
// the catalog once, whatever the table holds. A ForCatalog successor meeting
// a prefix entry folds the missing suffix from those scores and stores the
// extended entry; the retired smaller generation reading beside it finds an
// entry it cannot use, folds its own catalog, and leaves the entry alone.
// Every read matches the two-pass oracle of its own catalog.
func TestFusedFirstTouchKeepsRangeTableRules(t *testing.T) {
	inners, _, numItems := scoreOnceInners(t)
	small, large := numItems-9, numItems+7 // short of the trained items, and past them
	const u = types.UserID(5)
	for name, inner := range inners {
		counter := &callCounter{Scorer: inner}
		old := NewNormalizedScorer(counter, small)
		grown := old.ForCatalog(large)
		check := func(label string, n *NormalizedScorer, numItems, wantStored int) {
			t.Helper()
			got64, got32 := make([]float64, numItems), make([]float32, numItems)
			counter.items = 0
			m64 := n.AccuracyScores(u, got64)
			if counter.items != numItems {
				t.Fatalf("%s %s: AccuracyScores scored %d items, want the catalog's %d once", name, label, counter.items, numItems)
			}
			mapAll(m64, got64)
			assertBits64(t, name+" "+label+" AccuracyScores", got64, oracleScoreUser(counter, u, numItems, catalogItems(numItems)))
			counter.items = 0
			m32 := n.AccuracyScores32(u, got32)
			if counter.items != numItems {
				t.Fatalf("%s %s: AccuracyScores32 scored %d items, want the catalog's %d once", name, label, counter.items, numItems)
			}
			mapAll(m32, got32)
			assertBits32(t, name+" "+label+" AccuracyScores32", got32, oracleScoreUser32(counter, u, numItems, catalogItems(numItems)))
			assertStoredRange(t, name+" "+label, n, u, wantStored)
		}
		check("first touch", old, small, small)
		check("successor extends the prefix", grown, large, large)
		check("retired generation rescans", old, small, large)
		check("successor's entry undisturbed", grown, large, large)
	}
}

// callCounter counts the items its model is asked to score, through whichever
// path. Its float32 bulk scores are its model's own, or its model's float64
// bulk scores truncated.
type callCounter struct {
	Scorer
	items int
}

func (c *callCounter) Score(u types.UserID, i types.ItemID) float64 {
	c.items++
	return c.Scorer.Score(u, i)
}

func (c *callCounter) ScoreUser(u types.UserID, items []types.ItemID, out []float64) {
	c.items += len(items)
	BulkScores(c.Scorer, u, items, out)
}

func (c *callCounter) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	c.items += len(items)
	if bs32, ok := c.Scorer.(BulkScorer32); ok {
		bs32.ScoreUser32(u, items, out)
		return
	}
	wide := make([]float64, len(items))
	BulkScores(c.Scorer, u, items, wide)
	for k, v := range wide {
		out[k] = float32(v)
	}
}

// TestConcurrentFirstTouches (run it with -race -count=10): goroutines
// first-touch the same users through AccuracyScores, RawScores32,
// AccuracyScore and a turn's AccuracyScores32 at once, on one table shared by
// two catalog generations; whichever of them computes a user's range, every
// reader sees the two-pass oracle's values.
func TestConcurrentFirstTouches(t *testing.T) {
	inners, numUsers, numItems := scoreOnceInners(t)
	sizes := []int{numItems - 5, numItems}
	items := []types.ItemID{0, 11, 3, types.ItemID(numItems - 6), 19}
	for name, inner := range inners {
		want64 := make([][][]float64, len(sizes))
		want32 := make([][][]float32, len(sizes))
		wantPoint := make([][][]float64, len(sizes))
		wantCatalog := make([][][]float32, len(sizes))
		for g, size := range sizes {
			for u := 0; u < numUsers; u++ {
				want64[g] = append(want64[g], oracleScoreUser(inner, types.UserID(u), size, catalogItems(size)))
				want32[g] = append(want32[g], oracleScoreUser32(inner, types.UserID(u), size, items))
				wantPoint[g] = append(wantPoint[g], oracleScore(inner, types.UserID(u), size, items))
				wantCatalog[g] = append(wantCatalog[g], oracleScoreUser32(inner, types.UserID(u), size, catalogItems(size)))
			}
		}
		root := NewNormalizedScorer(inner, sizes[0])
		var wg sync.WaitGroup
		for g := range sizes {
			n := root.ForCatalog(sizes[g])
			for path := 0; path < 4; path++ {
				for copies := 0; copies < 2; copies++ {
					wg.Add(1)
					go func(g, path int) {
						defer wg.Done()
						got64, got32 := make([]float64, len(items)), make([]float32, len(items))
						catalog64, catalog32 := make([]float64, sizes[g]), make([]float32, sizes[g])
						for u := 0; u < numUsers; u++ {
							uid := types.UserID(u)
							switch path {
							case 0:
								mapAll(n.AccuracyScores(uid, catalog64), catalog64)
								for i, want := range want64[g][u] {
									if math.Float64bits(catalog64[i]) != math.Float64bits(want) {
										t.Errorf("%s: AccuracyScores user %d item %d = %v, oracle %v", name, u, i, catalog64[i], want)
										return
									}
								}
							case 1:
								mapAll(n.RawScores32(uid, items, got32), got32)
								for k, want := range want32[g][u] {
									if math.Float32bits(got32[k]) != math.Float32bits(want) {
										t.Errorf("%s: RawScores32 user %d item %d = %v, oracle %v", name, u, items[k], got32[k], want)
										return
									}
								}
							case 2:
								mapAll(n.AccuracyScores32(uid, catalog32), catalog32)
								for i, want := range wantCatalog[g][u] {
									if math.Float32bits(catalog32[i]) != math.Float32bits(want) {
										t.Errorf("%s: AccuracyScores32 user %d item %d = %v, oracle %v", name, u, i, catalog32[i], want)
										return
									}
								}
							default:
								for k, i := range items {
									got64[k] = n.AccuracyScore(uid, i)
								}
								for k, want := range wantPoint[g][u] {
									if math.Float64bits(got64[k]) != math.Float64bits(want) {
										t.Errorf("%s: AccuracyScore user %d item %d = %v, oracle %v", name, u, items[k], got64[k], want)
										return
									}
								}
							}
						}
					}(g, path)
				}
			}
		}
		wg.Wait()
	}
}
