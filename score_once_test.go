package ganc

import (
	"context"
	"sync/atomic"
	"testing"
)

// countingRSVD counts the calls a pipeline makes into its base model, and the
// items it asks for in bulk.
type countingRSVD struct {
	*RSVD
	pointwise, bulk, items atomic.Int64
}

func (c *countingRSVD) Score(u UserID, i ItemID) float64 {
	c.pointwise.Add(1)
	return c.RSVD.Score(u, i)
}

func (c *countingRSVD) ScoreUser32(u UserID, items []ItemID, out []float32) {
	c.bulk.Add(1)
	c.items.Add(int64(len(items)))
	c.RSVD.ScoreUser32(u, items, out)
}

// TestPipelineScoresEachUserOnce pins what a turn costs (DESIGN.md §7): on a
// fresh GANC(RSVD, θ, Dyn) pipeline every turn of the first RecommendAll is a
// first touch of the normaliser and scores the user's catalog in one bulk
// call — the range and the gains come from the same scores — and every turn
// of the second pass, the range cached, scores the candidates only. Sampled
// OSLG with two workers, so the sequential (float64) and the out-of-sample
// (float32) phases both run; around a base with a float32 bulk body (f32) and
// one with a float64 bulk body alone (f64).
func TestPipelineScoresEachUserOnce(t *testing.T) {
	train := pipelineFixture(t).Train
	users, catalog := int64(train.NumUsers()), int64(train.NumItems())
	ctx := context.Background()
	for _, width := range []string{"f64", "f32"} {
		t.Run(width, func(t *testing.T) {
			m, err := TrainRSVD(train, smallRSVDConfig())
			if err != nil {
				t.Fatal(err)
			}
			base := &countingRSVD{RSVD: m}
			var scorer Scorer = base
			if width == "f64" {
				scorer = float64Bulk{base}
			}
			p, err := NewPipeline(train, WithBase(scorer),
				WithSampleSize(train.NumUsers()/4), WithWorkers(2), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			pass := func(name string, wantItems int64) {
				base.pointwise.Store(0)
				base.bulk.Store(0)
				base.items.Store(0)
				if _, err := p.RecommendAll(ctx); err != nil {
					t.Fatal(err)
				}
				if got := base.bulk.Load(); got != users {
					t.Errorf("%s: %d bulk calls into the base model for %d users, want one per user", name, got, users)
				}
				if got := base.items.Load(); got != wantItems {
					t.Errorf("%s: %d items scored in bulk, want %d", name, got, wantItems)
				}
				if got := base.pointwise.Load(); got != 0 {
					t.Errorf("%s: %d pointwise Score calls, want none", name, got)
				}
			}
			pass("first pass", users*catalog)
			pass("second pass", users*catalog-int64(train.NumRatings()))
		})
	}
}
