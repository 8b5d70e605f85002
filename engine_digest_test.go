package ganc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"

	"ganc/internal/simulate"
)

// engineDigests pins what the base engines and the re-ranking baselines
// produce on the sweep-digest fixture: the full RecommendAll collection, and
// a handful of RecommendUser cuts at n below and above the engine's N (a
// re-ranker's shorter list is a prefix of its list at N, and it never returns
// more than N). The values were recorded at the commit before every model
// ranked a candidate slice through one selector (PR 18's parent, where the
// re-rankers scanned the catalog against an exclusion map, scored one pair per
// call and were served by their own engine, and the base engines selected on
// a container/heap), so a pass here is byte-identity with those paths.
// Regenerate with `go test -run TestEngineDigests -v .` and copy the
// logged table — only when an output change is intended.
var engineDigests = map[string][2]string{
	"Pop":          {"22fbc0f2a80467b3", "d5c2d59560124873"},
	"ItemAvg":      {"693c8a8e36e7b902", "e17a6062d5c8df66"},
	"RSVD":         {"b7d1690b1cb52a61", "9f8cd7d639cfc877"},
	"ItemKNN":      {"6856fd402476f37d", "ef9d890832c8a22d"},
	"RBT-Pop@RSVD": {"80c1caca235c09ae", "3fb6bfec739b008c"},
	"RBT-Avg@RSVD": {"bea915810cf04af6", "881effccdcc87255"},
	"5D@RSVD":      {"e2470859a74c1137", "cd67c9052713b7b4"},
	"5D-AF@RSVD":   {"9d9f5df61ca12070", "3231cff6f90d8d52"},
	"PRA-10@RSVD":  {"8a2987c2d0e697f0", "b56c12ff8ca7e297"},
}

// digestTrain is the train set both digest tests run on (471 users × 841
// items).
func digestTrain(t *testing.T) *Dataset {
	t.Helper()
	data, err := GenerateML100K(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return SplitByUser(data, 0.8, rand.New(rand.NewSource(7))).Train
}

func TestEngineDigests(t *testing.T) {
	if !digestArch() {
		t.Skip("digests are checked on amd64 and 386, the architectures CI runs them on; " + runtime.GOARCH + " may fuse and order float operations differently")
	}
	const topN = 10
	train := digestTrain(t)
	rsvd, err := TrainRSVD(train, smallRSVDConfig())
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]Engine{"RSVD": NewBaseEngine(rsvd, train, topN)}
	for _, name := range []string{"Pop", "ItemAvg", "ItemKNN"} {
		s, err := NewBaseScorer(name, train, 5)
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = NewBaseEngine(s, train, topN)
	}
	for _, name := range []string{"RBT-Pop", "RBT-Avg", "5D", "5D-AF", "PRA-10"} {
		e, err := NewReranker(name, train, rsvd, topN, 5)
		if err != nil {
			t.Fatal(err)
		}
		engines[name+"@RSVD"] = e
	}

	ctx := context.Background()
	users := []UserID{0, 1, 17, UserID(train.NumUsers() / 2), UserID(train.NumUsers() - 1)}
	for key, want := range engineDigests {
		e := engines[key]
		if e == nil {
			t.Fatalf("no engine built for %s", key)
		}
		recs, err := e.RecommendAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cuts := sha256.New()
		for _, n := range []int{1, 4, topN - 1, topN + 5} {
			cut := make(Recommendations, len(users))
			for _, u := range users {
				if cut[u], err = e.RecommendUser(ctx, u, n); err != nil {
					t.Fatal(err)
				}
			}
			cuts.Write(simulate.CanonicalRecommendations(train, cut))
			cuts.Write([]byte{0})
		}
		got := [2]string{collectionDigest(train, recs), hex.EncodeToString(cuts.Sum(nil)[:8])}
		t.Logf("%q: {%q, %q},", key, got[0], got[1])
		if got != want {
			t.Errorf("%s: digests %v, recorded %v", key, got, want)
		}
	}
}
