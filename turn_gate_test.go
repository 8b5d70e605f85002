package ganc

// The gates that keep a turn where the fused walk put it (DESIGN.md §7): what
// it allocates, and what it costs beside the one bulk call it cannot avoid.

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
// and the set; every score buffer is pooled — and a RecommendAll pass at most
// 2.05 times per user: its turns' two, and the pass's own (the collection map,
// one frequency snapshot per sampled user) spread over them.
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

// TestTurnCostGate keeps the layer where the fused walk put it: a warm turn of
// sweep_batch's assembly — enumerate, one ScoreUser32 call, one walk — costs
// at most 1.6 × that ScoreUser32 call alone over the same candidates (about
// 1.8 × while the walk was four, 1.4 × fused). It runs at 8000 users, enough
// to leave most of the catalog rated as on that workload: an item no one rated
// has no factor row, the kernel skips it and the walk does not, so a smaller
// universe reads a ratio the workload never sees. Both sides run over the same
// users in alternating short rounds and each keeps its best: a busy neighbour
// slows a round, it never speeds one up; only seven losing attempts in a row
// fail. Skipped under -race and -short, where the ratio means nothing.
func TestTurnCostGate(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the turn cost gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping the turn cost gate in -short mode")
	}
	ctx := context.Background()
	p := rsvdBenchPipelines(t, 8000)()
	if _, err := p.RecommendAll(ctx); err != nil {
		t.Fatal(err)
	}
	kernel := p.baseScorer.(recommender.BulkScorer32)
	const attempts, rounds, users = 7, 9, 400
	cands := make([][]ItemID, users)
	out := make([]float32, p.Train().NumItems())
	for u := range cands {
		cands[u] = p.Train().AppendCandidates(UserID(u), nil)
	}
	sides := [2]func(u int){
		func(u int) { kernel.ScoreUser32(UserID(u), cands[u], out[:len(cands[u])]) },
		func(u int) {
			if _, err := p.RecommendUser(ctx, UserID(u), 0); err != nil {
				t.Fatal(err)
			}
		},
	}
	var ratio float64
	for attempt := 1; attempt <= attempts; attempt++ {
		var best [2]time.Duration
		for round := 0; round < rounds; round++ {
			for s, fn := range sides {
				t0 := time.Now()
				for u := 0; u < users; u++ {
					fn(u)
				}
				if d := time.Since(t0); round == 0 || d < best[s] {
					best[s] = d
				}
			}
		}
		ratio = float64(best[1]) / float64(best[0])
		t.Logf("attempt %d: ScoreUser32 %.1f µs, a warm turn %.1f µs, ratio %.2f",
			attempt, best[0].Seconds()*1e6/users, best[1].Seconds()*1e6/users, ratio)
		if ratio <= 1.6 {
			return
		}
	}
	t.Fatalf("a warm turn costs %.2f × its ScoreUser32 call in each of %d attempts, want ≤ 1.6 ×", ratio, attempts)
}
