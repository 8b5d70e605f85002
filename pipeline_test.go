package ganc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func pipelineFixture(t *testing.T) *Split {
	t.Helper()
	data, err := GenerateML100K(0.12)
	if err != nil {
		t.Fatal(err)
	}
	return SplitByUser(data, 0.8, rand.New(rand.NewSource(7)))
}

func TestPipelineValidation(t *testing.T) {
	split := pipelineFixture(t)
	if _, err := NewPipeline(nil, WithBaseNamed("Pop")); err == nil {
		t.Fatal("nil train accepted")
	}
	if _, err := NewPipeline(split.Train); err == nil {
		t.Fatal("pipeline without an accuracy source accepted")
	}
	if _, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithBase(NewPop(split.Train))); err == nil {
		t.Fatal("two accuracy sources accepted")
	}
	if _, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithTopN(0)); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithSampleSize(-1)); err == nil {
		t.Fatal("negative sample size accepted")
	}
	if _, err := NewPipeline(split.Train, WithBaseNamed("NoSuchModel")); err == nil {
		t.Fatal("unknown base name accepted")
	}
}

// TestPipelineOnlineMatchesFreshBatch verifies the core online-serving
// contract: RecommendUser on a fresh pipeline (Dyn frequencies all zero)
// agrees with the first sweep the batch path would make, and repeated online
// calls are deterministic and mutate nothing.
func TestPipelineOnlineMatchesFreshBatch(t *testing.T) {
	split := pipelineFixture(t)
	const n = 5
	ctx := context.Background()

	p, err := NewPipeline(split.Train,
		WithBaseNamed("Pop"),
		WithCoverage(CoverageStat()), // stateless coverage → online == batch exactly
		WithTopN(n),
		WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5 && u < split.Train.NumUsers(); u++ {
		online, err := p.RecommendUser(ctx, UserID(u), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(online) != len(batch[UserID(u)]) {
			t.Fatalf("user %d: online %v vs batch %v", u, online, batch[UserID(u)])
		}
		for k := range online {
			if online[k] != batch[UserID(u)][k] {
				t.Fatalf("user %d: online %v vs batch %v", u, online, batch[UserID(u)])
			}
		}
	}

	// Dyn coverage: online calls must be deterministic (no state mutation).
	pd, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithTopN(n), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	first, err := pd.RecommendUser(ctx, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	second, err := pd.RecommendUser(ctx, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != n || len(second) != n {
		t.Fatalf("online lists wrong length: %d / %d", len(first), len(second))
	}
	for k := range first {
		if first[k] != second[k] {
			t.Fatalf("online recommendation not deterministic: %v vs %v", first, second)
		}
	}

	// Out-of-range users and canceled contexts error instead of panicking.
	if _, err := pd.RecommendUser(ctx, UserID(split.Train.NumUsers()), n); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := pd.RecommendUser(canceled, 0, n); err == nil {
		t.Fatal("canceled context accepted")
	}
}

func TestPipelineIsAnEngine(t *testing.T) {
	split := pipelineFixture(t)
	p, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithTopN(4), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var e Engine = p
	if e.TopN() != 4 {
		t.Fatalf("TopN %d, want 4", e.TopN())
	}
	if !strings.HasPrefix(e.Name(), "GANC(") {
		t.Fatalf("engine name %q", e.Name())
	}
}

func TestRegistryBasesAndRerankers(t *testing.T) {
	split := pipelineFixture(t)
	for _, name := range []string{"Pop", "Rand", "ItemAvg"} {
		s, err := NewBaseScorer(name, split.Train, 7)
		if err != nil {
			t.Fatalf("base %s: %v", name, err)
		}
		recs, err := NewBaseEngine(s, split.Train, 3).RecommendAll(context.Background())
		if err != nil {
			t.Fatalf("base %s: %v", name, err)
		}
		if len(recs) != split.Train.NumUsers() {
			t.Fatalf("base %s: %d users recommended", name, len(recs))
		}
	}
	if _, err := NewBaseScorer("NoSuchModel", split.Train, 7); err == nil {
		t.Fatal("unknown base accepted")
	}

	base, err := NewBaseScorer("Pop", split.Train, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RBT-Pop", "PRA-10", "GANC"} {
		e, err := NewReranker(name, split.Train, base, 3, 7)
		if err != nil {
			t.Fatalf("reranker %s: %v", name, err)
		}
		set, err := e.RecommendUser(context.Background(), 0, 3)
		if err != nil {
			t.Fatalf("reranker %s online: %v", name, err)
		}
		if len(set) == 0 {
			t.Fatalf("reranker %s produced an empty list", name)
		}
	}
	if _, err := NewReranker("NoSuchReranker", split.Train, base, 3, 7); err == nil {
		t.Fatal("unknown reranker accepted")
	}

	// The registries enumerate their built-ins.
	if len(BaseNames()) < 7 || len(RerankerNames()) < 6 {
		t.Fatalf("registry incomplete: bases %v, rerankers %v", BaseNames(), RerankerNames())
	}
}

// TestRandIsSafeToServe holds the Rand base model to the Engine contract
// ("safe for concurrent use") on both ways the CLI can put it behind a server:
// as a base engine (-arec Rand -rerank none) and as GANC's accuracy component.
// The assertion is the race detector's: every draw comes from one generator.
func TestRandIsSafeToServe(t *testing.T) {
	train := pipelineFixture(t).Train
	randScorer, err := NewBaseScorer("Rand", train, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(train, WithBaseNamed("Rand"), WithTopN(3), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Engine{NewBaseEngine(randScorer, train, 3), p} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for u := g; u < train.NumUsers(); u += 4 {
					set, err := e.RecommendUser(context.Background(), UserID(u), 0)
					if err != nil || len(set) != 3 {
						t.Errorf("%s: user %d: list %v, error %v", e.Name(), u, set, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// unpopular is a foreign scorer that calls itself "Pop" and ranks the
// catalog the other way round: the fewer train ratings, the higher the
// score (item IDs break ties, so its order is total).
type unpopular struct{ counts []int }

func (unpopular) Name() string { return "Pop" }

func (s unpopular) Score(_ UserID, i ItemID) float64 {
	return -float64(s.counts[i]) - float64(i)*1e-6
}

// TestBaseKindMatchedByType: what a scorer is to the facade is decided by its
// Go type, never by its Name. A foreign scorer named "Pop" is normalised like
// any other custom scorer — its scores are not replaced by the library's
// popularity indicator — and is refused by the snapshot layer, while the
// library's own Pop assembles the same pipeline through WithBase and
// WithBaseNamed.
func TestBaseKindMatchedByType(t *testing.T) {
	train := pipelineFixture(t).Train
	const n = 5
	ctx := context.Background()
	// θ = 0 for every user: the value function is the accuracy component
	// alone, so the list is the base's own ranking.
	accuracyOnly := WithPreferenceVector(&Preferences{Values: make([]float64, train.NumUsers())})

	stub := unpopular{counts: train.PopularityVector()}
	foreign, err := NewPipeline(train, WithBase(stub), accuracyOnly, WithTopN(n))
	if err != nil {
		t.Fatal(err)
	}
	own := NewBaseEngine(stub, train, n)
	for u := UserID(0); u < 10; u++ {
		got, err := foreign.RecommendUser(ctx, u, n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := own.RecommendUser(ctx, u, n)
		if err != nil {
			t.Fatal(err)
		}
		assertRecsIdentical(t, "a foreign scorer named Pop", Recommendations{u: got}, Recommendations{u: want})
	}
	if err := foreign.Save(filepath.Join(t.TempDir(), "foreign.snap")); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("Save of a foreign scorer named Pop: err = %v, want ErrSnapshotUnsupported", err)
	}
	if _, err := NewIngestor(nil, foreign); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("NewIngestor around a foreign scorer named Pop: err = %v, want ErrSnapshotUnsupported", err)
	}

	// The library's Pop, given or named: one pipeline, one snapshot.
	given, err := NewPipeline(train, WithBase(NewPop(train)), WithTopN(n), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	named, err := NewPipeline(train, WithBaseNamed("Pop"), WithTopN(n), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var snaps [2][]byte
	for k, p := range []*Pipeline{given, named} {
		if kind := kindOf(p.baseScorer); kind == nil || kind.name != "Pop" {
			t.Fatalf("pipeline %d carries base scorer %T, not the Pop row's", k, p.baseScorer)
		}
		path := filepath.Join(dir, fmt.Sprintf("pop%d.snap", k))
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
		if snaps[k], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("WithBase(NewPop(train)) and WithBaseNamed(\"Pop\") saved different snapshots")
	}
	want, err := given.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := named.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertRecsIdentical(t, "Pop given vs named", got, want)
}
