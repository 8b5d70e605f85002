package ganc

// The gates that keep a turn where the item-indexed walk put it (DESIGN.md
// §7): what it allocates, and what it costs, warm and cold, beside the one
// bulk call it cannot avoid.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"ganc/internal/recommender"
)

// TestTurnAllocs pins the two numbers the traced sweep_batch run prints as
// core.allocs_per_user_online and core.allocs_per_user_batch, on that
// workload's assembly: a warm RecommendUser allocates exactly twice — the heap
// and the set; the catalog-wide score buffer is pooled, the Dyn row is cached
// and no candidate list is built — and a RecommendAll pass at most 2.05 times
// per user: its turns' two, and the pass's own (the collection map, one
// coverage row per sampled user) spread over them.
func TestTurnAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	ctx := context.Background()
	p := rsvdBenchPipelines(t, 4000)()
	if _, err := p.RecommendAll(ctx); err != nil {
		t.Fatal(err)
	}
	users := p.Train().NumUsers()
	u := 0
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.RecommendUser(ctx, UserID(u%users), 0); err != nil {
			t.Fatal(err)
		}
		u++
	}); allocs != 2 {
		t.Fatalf("a warm RecommendUser allocates %v times, want exactly 2 (the heap and the set)", allocs)
	}
	// Mallocs is cumulative and exact, so the collector's timing does not
	// enter; the pass's two workers are counted with it.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.RecommendAll(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if perUser := float64(after.Mallocs-before.Mallocs) / float64(users); perUser > 2.05 {
		t.Fatalf("a RecommendAll pass allocates %.3f times per user, want ≤ 2.05", perUser)
	}
}

// TestTurnCostGate keeps the layer where the item-indexed turn and its bound
// rows put it, in two arms, each against the one bulk call a turn that needs
// every score cannot avoid: ScoreCatalog32 over the catalog, the model's
// catalog body. Warm: a turn of sweep_batch's assembly with the user's range
// cached — a bound row, the rows it keeps and one walk — costs at most 1.2 ×
// the call (0.62–1.05 × measured over six runs; a warm turn that scores every
// row reads 1.26–1.28 ×, so that is what the bound catches). Cold: a turn on
// a fresh normaliser, the user's first touch — both bound rows, the range
// certified from them, the rows they keep and one walk — costs at most
// 1.25 × it (0.94–1.11 × over six runs; a first touch that scores the catalog
// and folds the range from every score read 1.34–1.49 ×, and one that also
// took the bound rows first reads more). It runs at 8000 users, enough to
// leave most of the catalog rated as on that workload: an item no one rated
// has no factor row, the kernel skips it and the walk does not, so a smaller
// universe reads a ratio the workload never sees. Both sides of an arm run
// over the same users in alternating short rounds and each keeps its best
// (costGate); only seven losing attempts in a row fail. Skipped under -race
// and -short, where the ratio means nothing.
func TestTurnCostGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the turn cost gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping the turn cost gate in -short mode")
	}
	ctx := context.Background()
	newPipeline := rsvdBenchPipelines(t, 8000)
	p := newPipeline()
	if _, err := p.RecommendAll(ctx); err != nil {
		t.Fatal(err)
	}
	kernel := p.baseScorer.(recommender.CatalogScorer32)
	const users = 400
	out := make([]float32, p.Train().NumItems())
	catalogCall := func(u int) { kernel.ScoreCatalog32(UserID(u), out) }
	turn := func(p **Pipeline) func(u int) {
		return func(u int) {
			if _, err := (*p).RecommendUser(ctx, UserID(u), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	names, calls := [2]string{"ScoreCatalog32", "a turn"}, [2]int{users, users}
	t.Run("warm", func(t *testing.T) {
		costGate(t, names, calls, 1.2, 7, nil, [2]func(k int){catalogCall, turn(&p)})
	})
	t.Run("cold", func(t *testing.T) {
		fresh := newPipeline()
		costGate(t, names, calls, 1.25, 7, func() { fresh = newPipeline() }, [2]func(k int){catalogCall, turn(&fresh)})
	})
}

// costGate fails unless a call of sides[1] costs at most bound × a call of
// sides[0], in one of attempts attempts. An attempt is nine rounds; in each,
// before runs untimed when it is set, then each side makes its calls[s]
// calls, sides[s](0) to sides[s](calls[s]−1), timed as a whole, and each side
// keeps its best round: a busy neighbour slows a round, it never speeds one
// up, and the two sides take turns at the same neighbour.
func costGate(t *testing.T, names [2]string, calls [2]int, bound float64, attempts int, before func(), sides [2]func(k int)) {
	const rounds = 9
	var per [2]float64
	for attempt := 1; attempt <= attempts; attempt++ {
		var best [2]time.Duration
		for round := 0; round < rounds; round++ {
			if before != nil {
				before()
			}
			for s, fn := range sides {
				t0 := time.Now()
				for k := 0; k < calls[s]; k++ {
					fn(k)
				}
				if d := time.Since(t0); round == 0 || d < best[s] {
					best[s] = d
				}
			}
		}
		for s := range per {
			per[s] = best[s].Seconds() * 1e6 / float64(calls[s])
		}
		t.Logf("attempt %d: %s %.2f µs, %s %.2f µs, ratio %.2f", attempt, names[0], per[0], names[1], per[1], per[1]/per[0])
		if per[1] <= bound*per[0] {
			return
		}
	}
	t.Fatalf("%s costs %.2f × %s in each of %d attempts, want ≤ %.2f ×", names[1], per[1]/per[0], names[0], attempts, bound)
}
