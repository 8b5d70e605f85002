package recommender

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ganc/internal/mf"
	"ganc/internal/types"
)

// normalizedBits returns the normaliser's outputs for every (user, item) of
// its catalog as raw bits: its float64 catalog scores mapped, which fold a
// missing range from the catalog they score, then its float32 item-slice
// scores mapped, which read the range before they score.
func normalizedBits(n *NormalizedScorer, numUsers int) [][]uint64 {
	items := catalogItems(n.numItems)
	out64 := make([]float64, len(items))
	out32 := make([]float32, len(items))
	all := make([][]uint64, numUsers)
	for u := range all {
		mapAll(n.AccuracyScores(types.UserID(u), out64), out64)
		bits := make([]uint64, 0, 2*len(items))
		for _, v := range out64 {
			bits = append(bits, math.Float64bits(v))
		}
		mapAll(n.RawScores32(types.UserID(u), items, out32), out32)
		for _, v := range out32 {
			bits = append(bits, uint64(math.Float32bits(v)))
		}
		all[u] = bits
	}
	return all
}

func assertSameBits(t *testing.T, label string, got, want [][]uint64) {
	t.Helper()
	for u := range want {
		for k := range want[u] {
			if got[u][k] != want[u][k] {
				t.Errorf("%s: user %d output %d: bits %#x, a fresh normaliser's full scan gives %#x", label, u, k, got[u][k], want[u][k])
				return
			}
		}
	}
}

// float64Only hides a model's float32 bulk body, leaving what a custom scorer
// with a float64 bulk method alone shows the normaliser.
type float64Only struct{ Scorer }

func (f float64Only) ScoreUser(u types.UserID, items []types.ItemID, out []float64) {
	BulkScores(f.Scorer, u, items, out)
}

// TestRangeTableParityAcrossCatalogGrowth is the exactness contract of the
// shared range table: for a frozen RSVD — as it is (f32) and behind a
// float64-only bulk body (f64) — a table filled at one catalog size and read
// at a larger one (and a smaller one: the older-generation reader that meets
// a newer entry) normalises bit for bit as a fresh NormalizedScorer scanning
// that whole catalog — also with every generation reading concurrently,
// which is what a swap under load does. The smallest catalog stops short of
// the trained items and the largest runs past them, so the folded-in suffix
// holds both real scores and the unknown-item fallback.
func TestRangeTableParityAcrossCatalogGrowth(t *testing.T) {
	d := bulkTestDataset(11)
	cfg := mf.DefaultRSVDConfig()
	cfg.Factors, cfg.Epochs, cfg.Seed = 8, 3, 11
	sizes := []int{d.NumItems() - 9, d.NumItems(), d.NumItems() + 7}
	numUsers := d.NumUsers() + 2 // users the model has never seen included

	rsvd, err := mf.TrainRSVD(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]Scorer{"f64": float64Only{rsvd}, "f32": rsvd} {
		t.Run(name, func(t *testing.T) {
			want := make([][][]uint64, len(sizes))
			for g, n := range sizes {
				want[g] = normalizedBits(NewNormalizedScorer(model, n), numUsers)
			}

			// Sequential: fill at each size in turn, then walk back down.
			gens := []*NormalizedScorer{NewNormalizedScorer(model, sizes[0])}
			for _, n := range sizes[1:] {
				gens = append(gens, gens[0].ForCatalog(n))
			}
			for _, g := range []int{0, 1, 2, 1, 0, 2} {
				assertSameBits(t, "sequential", normalizedBits(gens[g], numUsers), want[g])
			}

			// Concurrent: one empty table, every generation reading at once.
			root := NewNormalizedScorer(model, sizes[0])
			var wg sync.WaitGroup
			for round := 0; round < 4; round++ {
				for g, n := range sizes {
					wg.Add(1)
					go func(g int, gen *NormalizedScorer) {
						defer wg.Done()
						assertSameBits(t, "concurrent", normalizedBits(gen, numUsers), want[g])
					}(g, root.ForCatalog(n))
				}
			}
			wg.Wait()
		})
	}
}

// countingScorer is a bulk scorer that counts the items it is asked to score.
type countingScorer struct{ scored atomic.Int64 }

func (c *countingScorer) Score(u types.UserID, i types.ItemID) float64 {
	c.scored.Add(1)
	return float64((int(u)*7+int(i)*13)%29) - 11
}

func (c *countingScorer) ScoreUser(u types.UserID, items []types.ItemID, out []float64) {
	for k, i := range items {
		out[k] = c.Score(u, i)
	}
}

func (c *countingScorer) Name() string { return "counting" }

// TestRangeTableScoresOnlyWhatIsMissing pins the cost model: a user's range
// costs one catalog scan ever, a grown catalog costs only its new items, and
// an older generation meeting a newer entry rescans without disturbing it.
func TestRangeTableScoresOnlyWhatIsMissing(t *testing.T) {
	inner := &countingScorer{}
	rangeCost := func(n *NormalizedScorer) int64 {
		before := inner.scored.Load()
		n.AccuracyScore(3, 0)
		return inner.scored.Load() - before - 1 // minus the scored item itself
	}
	old := NewNormalizedScorer(inner, 100)
	if got := rangeCost(old); got != 100 {
		t.Fatalf("first read scored %d items for the range, want the 100-item catalog", got)
	}
	if got := rangeCost(old); got != 0 {
		t.Fatalf("second read scored %d items for the range, want 0", got)
	}
	grown := old.ForCatalog(130)
	if got := rangeCost(grown); got != 30 {
		t.Fatalf("grown catalog scored %d items for the range, want only the 30 new ones", got)
	}
	if got := rangeCost(old); got != 100 {
		t.Fatalf("older generation scored %d items for the range, want a rescan of its own 100", got)
	}
	if got := rangeCost(grown); got != 0 {
		t.Fatalf("the older generation's read disturbed the newer entry: %d items rescored", got)
	}
}

// tableScorer scores item i scores[i] for every user.
type tableScorer struct{ scores []float64 }

func (s tableScorer) Name() string { return "table" }
func (s tableScorer) Score(_ types.UserID, i types.ItemID) float64 {
	return s.scores[i]
}

// tableScorer32 is tableScorer with a float32 bulk path (the table truncated).
type tableScorer32 struct{ tableScorer }

func (s tableScorer32) ScoreUser32(_ types.UserID, items []types.ItemID, out []float32) {
	for k, i := range items {
		out[k] = float32(s.scores[i])
	}
}

// TestRangeHeldSince: the range over a grown catalog is provably the range
// over its first items only when every later score lies strictly inside it —
// a later score that ties an extreme might be the only item there. The answer
// must be the same whether the table already holds the grown catalog's entry,
// the prefix's, or nothing, and whichever bulk path the inner model has.
func TestRangeHeldSince(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scores []float64
		from   int
		want   bool
	}{
		{"tail inside", []float64{1, 5, 3, 2, 4}, 3, true},
		{"no tail", []float64{1, 5, 3}, 3, true},
		{"tail below the minimum", []float64{1, 5, 3, 0.5}, 3, false},
		{"tail above the maximum", []float64{1, 5, 3, 2, 6}, 3, false},
		{"tail ties the maximum", []float64{1, 5, 3, 5}, 3, false},
		{"tail ties a minimum the prefix never reached", []float64{2, 5, 3, 1, 1}, 3, false},
		{"flat range", []float64{3, 3, 3, 3}, 2, false},
		{"not a number", []float64{1, 5, 3, math.NaN()}, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for width, inner := range map[string]Scorer{
				"float64 inner": tableScorer{tc.scores},
				"float32 inner": tableScorer32{tableScorer{tc.scores}},
			} {
				prefix := NewNormalizedScorer(inner, tc.from)
				prefix.rangeOf(0) // the table holds the prefix's entry
				for label, n := range map[string]*NormalizedScorer{
					"empty table":    NewNormalizedScorer(inner, len(tc.scores)),
					"prefix's entry": prefix.ForCatalog(len(tc.scores)),
				} {
					for round, state := range []string{"", ", catalog's entry stored"} {
						if got := n.RangeHeldSince(0, tc.from); got != tc.want {
							t.Errorf("%s, %s%s (round %d): RangeHeldSince = %v, want %v", width, label, state, round, got, tc.want)
						}
					}
				}
			}
		})
	}
}
