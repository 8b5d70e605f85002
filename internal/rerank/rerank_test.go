package rerank

import (
	"math/rand"
	"strings"
	"testing"

	"ganc/internal/dataset"
	"ganc/internal/mf"
	"ganc/internal/recommender"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// sharedSplit and sharedRSVD are built once; the re-rankers under test all
// post-process the same rating-prediction model, as in the paper's Table IV.
var (
	sharedSplit *dataset.Split
	sharedRSVD  *mf.RSVD
)

func setupShared(t *testing.T) (*dataset.Split, *mf.RSVD) {
	t.Helper()
	if sharedSplit != nil {
		return sharedSplit, sharedRSVD
	}
	cfg := synth.ML100K(0.15)
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := d.SplitByUser(0.8, rand.New(rand.NewSource(31)))
	model, err := mf.TrainRSVD(sp.Train, mf.RSVDConfig{
		Factors: 12, LearningRate: 0.02, Regularization: 0.05,
		Epochs: 8, UseBiases: true, InitStd: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sharedSplit, sharedRSVD = sp, model
	return sp, model
}

func validateCollection(t *testing.T, name string, recs types.Recommendations, train *dataset.Dataset, n int) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatalf("%s produced no recommendations", name)
	}
	for u, set := range recs {
		if len(set) == 0 {
			continue
		}
		if len(set) > n {
			t.Fatalf("%s: user %d list longer than N: %d", name, u, len(set))
		}
		seen := map[types.ItemID]bool{}
		trainItems := train.UserItemSet(u)
		for _, i := range set {
			if seen[i] {
				t.Fatalf("%s: user %d duplicate item %d", name, u, i)
			}
			seen[i] = true
			if _, bad := trainItems[i]; bad {
				t.Fatalf("%s: user %d recommended train item %d", name, u, i)
			}
		}
	}
}

func TestRBTConfigValidation(t *testing.T) {
	sp, model := setupShared(t)
	bad := []RBTConfig{
		{N: 0, TMax: 5},
		{N: 5, TMax: 0},
		{N: 5, TMax: 5, TH: -1},
	}
	for k, cfg := range bad {
		if _, err := NewRBT(sp.Train, model, cfg); err == nil {
			t.Errorf("case %d: expected error", k)
		}
	}
}

func TestRBTProducesValidCollections(t *testing.T) {
	sp, model := setupShared(t)
	for _, crit := range []RBTCriterion{RBTPop, RBTAvg} {
		r, err := NewRBT(sp.Train, model, DefaultRBTConfig(5, crit))
		if err != nil {
			t.Fatal(err)
		}
		recs := recommender.RecommendAll(r, sp.Train, 5)
		validateCollection(t, r.Name(), recs, sp.Train, 5)
		if !strings.Contains(r.Name(), "RBT(RSVD") {
			t.Fatalf("name %q does not follow the template", r.Name())
		}
	}
}

func TestRBTPopIncreasesCoverageOverBaseRanking(t *testing.T) {
	sp, model := setupShared(t)
	n := 5
	base := recommender.RecommendAll(&recommender.ScorerTopN{Scorer: model}, sp.Train, n)
	// A permissive threshold (TR below the score range top) ensures items
	// qualify for re-ranking, which is where coverage gains come from.
	r, err := NewRBT(sp.Train, model, RBTConfig{N: n, TR: 3.5, TMax: 5, TH: 1, Criterion: RBTPop})
	if err != nil {
		t.Fatal(err)
	}
	rbt := recommender.RecommendAll(r, sp.Train, n)
	if len(rbt.DistinctItems()) <= len(base.DistinctItems()) {
		t.Fatalf("RBT(Pop) coverage %d should exceed base RSVD coverage %d",
			len(rbt.DistinctItems()), len(base.DistinctItems()))
	}
}

func TestRBTFallsBackWhenNothingQualifies(t *testing.T) {
	sp, model := setupShared(t)
	n := 5
	// Threshold far above any predicted rating → re-ranking never fires and
	// the output equals the base accuracy ranking.
	r, err := NewRBT(sp.Train, model, RBTConfig{N: n, TR: 100, TMax: 5, TH: 1, Criterion: RBTPop})
	if err != nil {
		t.Fatal(err)
	}
	base := &recommender.ScorerTopN{Scorer: model}
	for u := 0; u < 20; u++ {
		uid := types.UserID(u)
		cands := sp.Train.AppendCandidates(uid, nil)
		want := base.Recommend(uid, n, cands)
		got := r.Recommend(uid, n, cands)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("user %d: fallback list %v != base list %v", u, got, want)
			}
		}
	}
}

func TestFiveDConfigValidation(t *testing.T) {
	sp, model := setupShared(t)
	if _, err := NewFiveD(sp.Train, model, FiveDConfig{N: 0, Q: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewFiveD(sp.Train, model, FiveDConfig{N: 5, Q: 0}); err == nil {
		t.Fatal("Q=0 accepted")
	}
}

func TestFiveDVariantsProduceValidCollections(t *testing.T) {
	sp, model := setupShared(t)
	variants := []FiveDConfig{
		DefaultFiveDConfig(5),
		{N: 5, Q: 1, AccuracyFilter: true},
		{N: 5, Q: 1, RankByRankings: true},
		{N: 5, Q: 1, AccuracyFilter: true, RankByRankings: true},
	}
	names := map[string]bool{}
	for _, cfg := range variants {
		f, err := NewFiveD(sp.Train, model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs := recommender.RecommendAll(f, sp.Train, 5)
		validateCollection(t, f.Name(), recs, sp.Train, 5)
		names[f.Name()] = true
	}
	if len(names) != 4 {
		t.Fatalf("variant names not distinct: %v", names)
	}
}

func TestFiveDPromotesLongTailAggressively(t *testing.T) {
	// The paper's Table IV: 5D attains the highest LTAccuracy of all
	// re-rankers, at a large cost in accuracy. Verify that the share of
	// long-tail items in the plain 5D output exceeds the base model's.
	sp, model := setupShared(t)
	n := 5
	tail := sp.Train.LongTail(dataset.DefaultTailShare)
	countTail := func(recs types.Recommendations) (tailCount, total int) {
		for _, set := range recs {
			for _, i := range set {
				total++
				if _, ok := tail[i]; ok {
					tailCount++
				}
			}
		}
		return
	}
	base := recommender.RecommendAll(&recommender.ScorerTopN{Scorer: model}, sp.Train, n)
	f, err := NewFiveD(sp.Train, model, DefaultFiveDConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	fd := recommender.RecommendAll(f, sp.Train, n)
	baseTail, baseTotal := countTail(base)
	fdTail, fdTotal := countTail(fd)
	if float64(fdTail)/float64(fdTotal) <= float64(baseTail)/float64(baseTotal) {
		t.Fatalf("5D long-tail share %.3f should exceed base %.3f",
			float64(fdTail)/float64(fdTotal), float64(baseTail)/float64(baseTotal))
	}
}

func TestFiveDAccuracyFilterKeepsHigherScoredItems(t *testing.T) {
	sp, model := setupShared(t)
	n := 5
	plain, _ := NewFiveD(sp.Train, model, FiveDConfig{N: n, Q: 1})
	filtered, _ := NewFiveD(sp.Train, model, FiveDConfig{N: n, Q: 1, AccuracyFilter: true})
	// Average accuracy score of recommended items should not decrease when
	// the accuracy filter is on.
	avgScore := func(recs types.Recommendations) float64 {
		s, c := 0.0, 0
		for u, set := range recs {
			for _, i := range set {
				s += model.Score(u, i)
				c++
			}
		}
		return s / float64(c)
	}
	if avgScore(recommender.RecommendAll(filtered, sp.Train, n)) < avgScore(recommender.RecommendAll(plain, sp.Train, n))-1e-9 {
		t.Fatal("accuracy filter decreased the average predicted rating of recommendations")
	}
}

func TestPRAConfigValidation(t *testing.T) {
	sp, model := setupShared(t)
	bad := []PRAConfig{
		{N: 0, ExchangeableSize: 10, SampleSize: 10},
		{N: 5, ExchangeableSize: 0, SampleSize: 10},
		{N: 5, ExchangeableSize: 10, SampleSize: 0},
		{N: 5, ExchangeableSize: 10, SampleSize: 10, MaxSteps: -1},
	}
	for k, cfg := range bad {
		if _, err := NewPRA(sp.Train, model, cfg); err == nil {
			t.Errorf("case %d: expected error", k)
		}
	}
}

func TestPRAProducesValidCollections(t *testing.T) {
	sp, model := setupShared(t)
	for _, x := range []int{10, 20} {
		p, err := NewPRA(sp.Train, model, DefaultPRAConfig(5, x))
		if err != nil {
			t.Fatal(err)
		}
		recs := recommender.RecommendAll(p, sp.Train, 5)
		validateCollection(t, p.Name(), recs, sp.Train, 5)
		if !strings.Contains(p.Name(), "PRA(RSVD,") {
			t.Fatalf("name %q does not follow the template", p.Name())
		}
	}
}

func TestPRAAdaptsListNoveltyTowardUserTendency(t *testing.T) {
	sp, model := setupShared(t)
	n := 5
	p, err := NewPRA(sp.Train, model, DefaultPRAConfig(n, 20))
	if err != nil {
		t.Fatal(err)
	}
	base := &recommender.ScorerTopN{Scorer: model}
	improved, worsened := 0, 0
	for u := 0; u < sp.Train.NumUsers(); u++ {
		uid := types.UserID(u)
		cands := sp.Train.AppendCandidates(uid, nil)
		baseList := base.Recommend(uid, n, cands)
		praList := p.Recommend(uid, n, cands)
		target := p.userTendency(uid)
		baseGap := absF(p.listNovelty(baseList) - target)
		praGap := absF(p.listNovelty(praList) - target)
		if praGap < baseGap-1e-12 {
			improved++
		} else if praGap > baseGap+1e-12 {
			worsened++
		}
	}
	if worsened > 0 {
		t.Fatalf("PRA moved %d users' lists away from their tendency", worsened)
	}
	if improved == 0 {
		t.Fatal("PRA never adapted any list; the swap loop seems inert")
	}
}

func TestPRAZeroStepsEqualsBaseRanking(t *testing.T) {
	sp, model := setupShared(t)
	n := 5
	p, err := NewPRA(sp.Train, model, PRAConfig{N: n, ExchangeableSize: 10, SampleSize: 10, MaxSteps: 0})
	if err != nil {
		t.Fatal(err)
	}
	base := &recommender.ScorerTopN{Scorer: model}
	for u := 0; u < 15; u++ {
		uid := types.UserID(u)
		cands := sp.Train.AppendCandidates(uid, nil)
		want := base.Recommend(uid, n, cands)
		got := p.Recommend(uid, n, cands)
		wantSet := map[types.ItemID]bool{}
		for _, i := range want {
			wantSet[i] = true
		}
		for _, i := range got {
			if !wantSet[i] {
				t.Fatalf("user %d: zero-step PRA changed the list: %v vs %v", u, got, want)
			}
		}
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRerankersCutToRequestedN pins the TopN contract the re-rankers share: a
// list is built at the configured N, so a smaller n is a prefix of it, a larger
// n returns it whole, and n ≤ 0 returns nothing.
func TestRerankersCutToRequestedN(t *testing.T) {
	sp, model := setupShared(t)
	const n = 5
	rbt, _ := NewRBT(sp.Train, model, RBTConfig{N: n, TR: 3.5, TMax: 5, TH: 1, Criterion: RBTPop})
	fiveD, _ := NewFiveD(sp.Train, model, DefaultFiveDConfig(n))
	pra, _ := NewPRA(sp.Train, model, DefaultPRAConfig(n, 10))
	for _, m := range []recommender.TopN{rbt, fiveD, pra} {
		for u := 0; u < 10; u++ {
			uid := types.UserID(u)
			cands := sp.Train.AppendCandidates(uid, nil)
			full := m.Recommend(uid, n, cands)
			if len(full) != n {
				t.Fatalf("%s: user %d: %d items at N", m.Name(), u, len(full))
			}
			short, long := m.Recommend(uid, 2, cands), m.Recommend(uid, n+4, cands)
			if len(short) != 2 || short[0] != full[0] || short[1] != full[1] {
				t.Fatalf("%s: user %d: n=2 list %v is not a prefix of %v", m.Name(), u, short, full)
			}
			if len(long) != n {
				t.Fatalf("%s: user %d: n above N returned %d items", m.Name(), u, len(long))
			}
			if got := m.Recommend(uid, 0, cands); got != nil {
				t.Fatalf("%s: user %d: n=0 returned %v", m.Name(), u, got)
			}
		}
	}
}
