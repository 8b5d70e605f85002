package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ganc/internal/longtail"
	"ganc/internal/types"
)

func TestMarginalGainStaysInUnitInterval(t *testing.T) {
	// Property: with accuracy and coverage scores in [0,1] and θ in [0,1],
	// the marginal gain of any (user, item) pair is in [0,1].
	sp := testSplit(t)
	train := sp.Train
	prefs, err := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(train, popArec(train, 5), prefs, NewDynCoverage(train.NumItems()), Config{N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(u uint16, i uint16) bool {
		uid := types.UserID(int(u) % train.NumUsers())
		iid := types.ItemID(int(i) % train.NumItems())
		gain := g.marginalGain(uid, iid)
		return gain >= 0 && gain <= 1 && !math.IsNaN(gain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueOfMatchesSumOfSequentialGains(t *testing.T) {
	// For the fully sequential OSLG run with Dyn coverage, the objective
	// value computed by replaying the collection (ValueOf) must equal the sum
	// of the marginal gains collected during construction — both are the
	// submodular objective of Eq. III.2 evaluated at the same point. We
	// verify indirectly: the value of the produced collection must be within
	// numerical tolerance of re-running the greedy construction while
	// accumulating gains.
	sp := testSplit(t)
	train := sp.Train
	prefs := longtail.Constant(train.NumUsers(), 0.5)

	// First run: produce the collection.
	g1, err := New(train, popArec(train, 3), prefs, NewDynCoverage(train.NumItems()), Config{N: 3, SampleSize: 0, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := g1.Recommend()
	value := g1.ValueOf(recs)

	// Second run: replay the same construction manually, accumulating gains
	// in the same (θ, user id) order the optimizer uses.
	dyn := NewDynCoverage(train.NumItems())
	arec := popArec(train, 3)
	total := 0.0
	users := make([]types.UserID, train.NumUsers())
	for u := range users {
		users[u] = types.UserID(u)
	}
	// Constant θ means OSLG's ordering is by ascending user id.
	for _, u := range users {
		exclude := train.UserItemSet(u)
		chosen := map[types.ItemID]struct{}{}
		for step := 0; step < 3; step++ {
			best := types.InvalidItem
			bestGain := math.Inf(-1)
			for idx := 0; idx < train.NumItems(); idx++ {
				item := types.ItemID(idx)
				if _, skip := exclude[item]; skip {
					continue
				}
				if _, used := chosen[item]; used {
					continue
				}
				gain := 0.5*arec.AccuracyScore(u, item) + 0.5*dyn.CoverageScore(u, item)
				if gain > bestGain || (gain == bestGain && item < best) {
					bestGain, best = gain, item
				}
			}
			if best == types.InvalidItem {
				break
			}
			total += bestGain
			chosen[best] = struct{}{}
			dyn.Observe(best)
		}
	}
	if math.Abs(total-value) > 1e-6 {
		t.Fatalf("ValueOf (%.6f) disagrees with the accumulated greedy gains (%.6f)", value, total)
	}
}

func TestValueOfIsOrderInvariantForStaticCoverage(t *testing.T) {
	// With Stat coverage the objective is modular, so the value of a
	// collection must not depend on any replay order. Compare ValueOf on the
	// same collection evaluated through two GANC instances that share
	// components (the second is a fresh instance to rule out hidden state).
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelTFIDF, train, nil, 0, 1)
	build := func() *GANC {
		g, err := New(train, popArec(train, 4), prefs, NewStatCoverage(train), Config{N: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build()
	recs := g.Recommend()
	v1 := g.ValueOf(recs)
	v2 := build().ValueOf(recs)
	if math.Abs(v1-v2) > 1e-9 {
		t.Fatalf("static-coverage value changed between evaluations: %v vs %v", v1, v2)
	}
}

func TestOSLGSampleSizeOneStillCoversAllUsers(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelGeneralized, train, nil, 0, 1)
	g, err := New(train, popArec(train, 3), prefs, NewDynCoverage(train.NumItems()), Config{N: 3, SampleSize: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	recs := g.Recommend()
	if len(recs) != train.NumUsers() {
		t.Fatalf("sample size 1 dropped users: %d vs %d", len(recs), train.NumUsers())
	}
	for u, set := range recs {
		if len(set) != 3 {
			t.Fatalf("user %d received %d items", u, len(set))
		}
	}
}

func TestOSLGWithRandomPreferencesIsReproducibleAcrossSeeds(t *testing.T) {
	// Different seeds may give different samples, but the run must never
	// panic and must always produce complete, valid collections.
	sp := testSplit(t)
	train := sp.Train
	prefs, _ := longtail.Estimate(longtail.ModelRandom, train, nil, 0, 99)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3; trial++ {
		g, err := New(train, popArec(train, 2), prefs, NewDynCoverage(train.NumItems()),
			Config{N: 2, SampleSize: 10 + rng.Intn(30), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		recs := g.Recommend()
		if len(recs) != train.NumUsers() {
			t.Fatalf("trial %d: incomplete collection", trial)
		}
	}
}
