package core

import (
	"math/rand"
	"sync"
	"testing"

	"ganc/internal/types"
)

func TestPopAccuracyCacheStaysBounded(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	pa := popArec(train, 5)
	pa.cacheCap = 4
	numUsers := train.NumUsers()
	if numUsers < 10 {
		t.Fatalf("fixture too small: %d users", numUsers)
	}
	for u := 0; u < numUsers; u++ {
		pa.AccuracyScore(types.UserID(u), 0)
		if got := len(pa.cache); got > 4 {
			t.Fatalf("cache grew to %d entries with cap 4", got)
		}
	}
	// Evicted users must still score correctly (recomputed on demand).
	fresh := popArec(train, 5)
	for u := 0; u < 10; u++ {
		for i := 0; i < 25; i++ {
			uid, iid := types.UserID(u), types.ItemID(i)
			if pa.AccuracyScore(uid, iid) != fresh.AccuracyScore(uid, iid) {
				t.Fatalf("user %d item %d: bounded cache changed the score", u, i)
			}
		}
	}
}

func TestPopAccuracyConcurrentReadsAgree(t *testing.T) {
	sp := testSplit(t)
	train := sp.Train
	pa := popArec(train, 5)
	pa.cacheCap = 8 // force eviction churn under concurrency
	want := popArec(train, 5)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			out := make([]float64, train.NumItems())
			items := make([]types.ItemID, 16)
			for trial := 0; trial < 200; trial++ {
				u := types.UserID(rng.Intn(train.NumUsers()))
				for k := range items {
					items[k] = types.ItemID(rng.Intn(train.NumItems()))
				}
				pa.AccuracyScores(u, out)
				for _, i := range items {
					if out[i] != want.AccuracyScore(u, i) {
						select {
						case errs <- "concurrent bulk score diverged":
						default:
						}
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
