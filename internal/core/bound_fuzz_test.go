package core

// The warm turn's two guarantees on the factor models themselves, for hostile
// factor rows: each model's bound row is at least its catalog scores, item by
// item, and a turn over the bound row selects the list a turn over the scores
// selects.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/longtail"
	"ganc/internal/mf"
	"ganc/internal/rank"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// hostileValues reads fuzz bytes as a stream of float64 values, two bytes
// each: the low four bits pick a kind — a mantissa scaled by a power of two
// (often far outside the float32 range, or below its subnormals), a zero of
// either sign, an infinity, NaN or a standard normal — and the rest the
// exponent. Past the bytes it draws ordinary values.
type hostileValues struct {
	data []byte
	rng  *rand.Rand
}

func (h *hostileValues) next() float64 {
	if len(h.data) < 2 {
		return h.rng.NormFloat64()
	}
	w := binary.LittleEndian.Uint16(h.data)
	h.data = h.data[2:]
	exp := int(w>>4) % 8
	if w>>15 == 1 {
		exp = int(w>>4)%300 - 150
	}
	mantissas := []float64{1, -1, 0.5, -0.75, 1.3, -1.9, 0.1, 3, -0.2, 1.7}
	switch code := int(w & 0xf); {
	case code < len(mantissas):
		return math.Ldexp(mantissas[code], exp)
	case code == 10:
		return 0
	case code == 11:
		return math.Copysign(0, -1)
	case code == 12:
		return math.Inf(1)
	case code == 13:
		return math.Inf(-1)
	case code == 14:
		return math.NaN()
	}
	return h.rng.NormFloat64()
}

func (h *hostileValues) rows(n, dims int) [][]float64 {
	m := make([][]float64, n)
	for r := range m {
		m[r] = make([]float64, dims)
		for f := range m[r] {
			m[r][f] = h.next()
		}
	}
	return m
}

func (h *hostileValues) vector(n int) []float64 {
	v := make([]float64, n)
	for k := range v {
		v[k] = h.next()
	}
	return v
}

// gobModel encodes a snapshot envelope in the gob layout the model loaders
// read rows from (version 2).
func gobModel(t testing.TB, envelope any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// hostileModels builds RSVD (with and without biases), PSVD and CofiRank
// (regression and pairwise) over users × items factor rows of dims values
// read from data, through the snapshot loaders, which take any value.
func hostileModels(t testing.TB, data []byte, users, items, dims int) []recommender.CatalogBounder32 {
	h := &hostileValues{data: data, rng: rand.New(rand.NewSource(int64(len(data))))}
	userF, itemF := h.rows(users, dims), h.rows(items, dims)
	mean, userBias, itemBias := h.next(), h.vector(users), h.vector(items)
	var models []recommender.CatalogBounder32
	for _, biases := range []bool{true, false} {
		m, err := mf.LoadRSVD(gobModel(t, struct {
			Version            int
			Config             mf.RSVDConfig
			GlobalMean         float64
			UserBias, ItemBias []float64
			UserF, ItemF       [][]float64
			Name               string
		}{2, mf.RSVDConfig{Factors: dims, UseBiases: biases, Epochs: 1, LearningRate: 0.01, InitStd: 0.1}, mean, userBias, itemBias, userF, itemF, "RSVD"}))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	p, err := mf.LoadPSVD(gobModel(t, struct {
		Version, Factors   int
		UserF, ItemF       [][]float64
		Name               string
		NumItems, NumUsers int
	}{2, dims, userF, itemF, "PSVD", items, users}))
	if err != nil {
		t.Fatal(err)
	}
	models = append(models, p)
	for _, loss := range []rank.Loss{rank.LossRegression, rank.LossPairwise} {
		m, err := rank.Load(gobModel(t, struct {
			Version      int
			Config       rank.Config
			UserF, ItemF [][]float64
			Mean         float64
			Name         string
		}{2, rank.Config{Factors: dims, Loss: loss, LearningRate: 0.01, Epochs: 1, InitStd: 0.1, PairsPerUser: 1}, userF, itemF, mean, "Cofi"}))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// fuzzShape reads the model's shape from the first three bytes: up to 8
// users, up to 766 items (a turn's walk flushes blocks of 32, 64, 128 and
// 256) and up to 9 factors.
func fuzzShape(data []byte) (users, items, dims int, rest []byte) {
	for len(data) < 3 {
		data = append(data, 0)
	}
	return 1 + int(data[0])%8, 1 + 3*int(data[1])%766, 1 + int(data[2])%9, data[3:]
}

// fuzzSeeds are the corpus both targets start from: ordinary rows, and rows
// laced with every hostile kind.
func fuzzSeeds(f *testing.F) {
	f.Add([]byte{3, 30, 4})
	f.Add([]byte{7, 250, 8})
	f.Add([]byte{5, 120, 3})
	f.Add([]byte{1, 39, 8, 0x0f, 0x80, 0x1c, 0x00, 0x0e, 0x00, 0xa3, 0xff, 0x5b, 0x9c, 0x0d, 0x00, 0x0b, 0x00, 0x07, 0x81})
	f.Add([]byte{2, 12, 1, 0x00, 0x80, 0x01, 0xff, 0x0c, 0x00, 0x0a, 0x00, 0x02, 0x90, 0x03, 0xe9})
	f.Add([]byte{0, 5, 2, 0x0e, 0x00, 0x0e, 0x00, 0x0e, 0x00})
	f.Add([]byte{})
}

// FuzzBoundRowCoversScores: for hostile factor rows — huge, subnormal,
// negative, infinite and NaN values, means and biases — every model's bound
// rows over a catalog shorter than, equal to and longer than its item block
// hold, item by item, the score ScoreCatalog32 gives between them: an upper
// bound, beside the lower row or alone, is NaN or at least the score, a lower
// bound NaN or at most it, and the score is not NaN where either is not; an
// unknown user is not bounded.
func FuzzBoundRowCoversScores(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		users, items, dims, rest := fuzzShape(data)
		for _, m := range hostileModels(t, rest, users, items, dims) {
			for _, n := range []int{max(items-2, 0), items, items + 3} {
				score, upper, lower, alone := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
				for u := -1; u <= users; u++ {
					uid := types.UserID(u)
					ok := m.BoundCatalog32(uid, upper, lower)
					if m.BoundCatalog32(uid, alone, nil) != ok {
						t.Fatalf("%s: user %d bounded %v with the lower row, %v without", m.Name(), u, ok, !ok)
					}
					if u < 0 || u == users {
						if ok {
							t.Fatalf("%s: unknown user %d bounded", m.Name(), u)
						}
						continue
					}
					if !ok {
						continue
					}
					m.ScoreCatalog32(uid, score)
					for i, s := range score {
						b, l, a := upper[i], lower[i], alone[i]
						if b == b && !(s <= b) || l == l && !(l <= s) || a == a && !(s <= a) {
							t.Fatalf("%s: user %d item %d of %d: bounds [%v, %v] (alone %v), score %v", m.Name(), u, i, n, l, b, a, s)
						}
					}
				}
			}
		}
	})
}

// unbounded is a factor model with its bound row hidden: a normaliser around
// it scores every turn's catalog, the full turn the bounded ones must match.
type unbounded struct{ recommender.CatalogScorer32 }

// onceScorer is a factor model whose list body records what it is asked for
// and fails the test when an item is asked for twice between two resets.
type onceScorer struct {
	recommender.CatalogBounder32
	t     *testing.T
	asked map[types.ItemID]bool
}

func (s *onceScorer) ScoreUser32(u types.UserID, items []types.ItemID, out []float32) {
	for _, i := range items {
		if s.asked[i] {
			s.t.Fatalf("%s: user %d: item %d scored twice in one turn", s.Name(), u, i)
		}
		s.asked[i] = true
	}
	s.CatalogBounder32.ScoreUser32(u, items, out)
}

// FuzzWarmTurnMatchesFullTurn: a GANC turn over a normaliser around each
// hostile model, beside a Dyn state read from the bytes, selects the list a
// full turn selects — one around the model with its bound row hidden, which
// scores the catalog and folds the range from every score — both on the
// user's first touch, whose range the bound rows certify, and warm, the range
// held; and after the first touch both normalisers hold the same range, to
// the bit of its map. The catalog is the model's item block, or three items
// longer (items past the block score the model's fallback), with the range
// table empty or holding the user's range over the block, as a generation
// before the catalog grew leaves it. No item is scored twice in a turn. It
// runs for n of 1, 3 and past the catalog, and for θ in [0, 1] and outside
// it (the turn then scores the catalog).
func FuzzWarmTurnMatchesFullTurn(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		users, items, dims, rest := fuzzShape(data)
		prefs := longtail.Random(users, int64(len(data)))
		if users > 1 {
			prefs.Values[1] = []float64{0, 1, 1.5, math.NaN()}[len(data)%4]
		}
		models := hostileModels(t, rest, users, items, dims)
		for _, grow := range []int{0, 3} {
			var ratings []types.Rating
			for u := 0; u < users; u++ {
				ratings = append(ratings, types.Rating{User: types.UserID(u), Item: types.ItemID((u * 7) % items), Value: 4})
			}
			ratings = append(ratings, types.Rating{User: 0, Item: types.ItemID(items + grow - 1), Value: 3})
			train := dataset.FromRatings("fuzz", ratings)
			catalog := train.NumItems()
			freq := make([]int, catalog)
			for i := range freq {
				if i < len(rest) {
					freq[i] = int(rest[len(rest)-1-i]) % 5
				}
			}
			for _, m := range models {
				once := &onceScorer{CatalogBounder32: m, t: t}
				for u := 0; u < users; u++ {
					uid := types.UserID(u)
					for _, n := range []int{1, 3, catalog + 1} {
						for _, prefix := range []bool{false, true} {
							// Fresh normalisers, so that the bounded one's first
							// turn is the user's first touch of this catalog.
							var norms [2]*recommender.NormalizedScorer
							for k, inner := range [2]recommender.Scorer{unbounded{m}, once} {
								norms[k] = recommender.NewNormalizedScorer(inner, catalog)
								if prefix {
									block := recommender.NewNormalizedScorer(inner, items)
									block.AccuracyScores32(uid, make([]float32, items))
									norms[k] = block.ForCatalog(catalog)
								}
							}
							turn := func(k int) types.TopNSet {
								once.asked = map[types.ItemID]bool{}
								g, err := New(train, norms[k], prefs, NewDynCoverageFrom(freq), Config{N: 3})
								if err != nil {
									t.Fatal(err)
								}
								set, err := g.RecommendUser(context.Background(), uid, n)
								if err != nil {
									t.Fatal(err)
								}
								return set
							}
							full, first, warm := turn(0), turn(1), turn(1)
							if !slices.Equal(first, full) || !slices.Equal(warm, full) {
								t.Fatalf("%s: user %d n %d, catalog %d of a block of %d, prefix entry %v: first touch %v, warm turn %v, full turn %v", m.Name(), u, n, catalog, items, prefix, first, warm, full)
							}
							want, got := make([]float32, catalog), make([]float32, catalog)
							wm, gm := norms[0].AccuracyScores32(uid, want), norms[1].AccuracyScores32(uid, got)
							wmin, wscale := wm.Affine()
							gmin, gscale := gm.Affine()
							if !sameBits(gmin, wmin) || !sameBits(gscale, wscale) {
								t.Fatalf("%s: user %d, catalog %d of a block of %d, prefix entry %v: map (%v, %v) after the first touch, the full turn's (%v, %v)", m.Name(), u, catalog, items, prefix, gmin, gscale, wmin, wscale)
							}
						}
					}
				}
			}
		}
	})
}

// sameBits reports whether a and b are the same float32, any NaN equal to
// any other.
func sameBits(a, b float32) bool {
	if a != a || b != b {
		return a != a && b != b
	}
	return math.Float32bits(a) == math.Float32bits(b)
}
