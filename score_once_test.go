package ganc

import (
	"context"
	"sync/atomic"
	"testing"
)

// countingRSVD counts the calls a pipeline makes into its base model and the
// items each body scores: pointwise, the catalog body, the list body, and the
// catalog body's bound twin.
type countingRSVD struct {
	*RSVD
	pointwise, catalog, catalogItems, list, listItems, bounds atomic.Int64
}

func (c *countingRSVD) Score(u UserID, i ItemID) float64 {
	c.pointwise.Add(1)
	return c.RSVD.Score(u, i)
}

func (c *countingRSVD) ScoreUser32(u UserID, items []ItemID, out []float32) {
	c.list.Add(1)
	c.listItems.Add(int64(len(items)))
	c.RSVD.ScoreUser32(u, items, out)
}

func (c *countingRSVD) ScoreCatalog32(u UserID, out []float32) {
	c.catalog.Add(1)
	c.catalogItems.Add(int64(len(out)))
	c.RSVD.ScoreCatalog32(u, out)
}

func (c *countingRSVD) BoundCatalog32(u UserID, out []float32) bool {
	c.bounds.Add(1)
	return c.RSVD.BoundCatalog32(u, out)
}

func (c *countingRSVD) reset() {
	for _, n := range []*atomic.Int64{&c.pointwise, &c.catalog, &c.catalogItems, &c.list, &c.listItems, &c.bounds} {
		n.Store(0)
	}
}

// TestPipelineScoresEachUserOnce pins what a turn costs (DESIGN.md §7): a
// turn that needs every score scores the user's whole catalog in one bulk
// call, rated items included, and builds no candidate list; a warm turn
// scores only what its bound row keeps. On a fresh GANC(RSVD, θ, Dyn)
// pipeline every turn of the first RecommendAll is a first touch of the
// normaliser — the range and the gains come from the same scores — and
// costs one bulk call. In the second pass, the ranges cached, the sequential
// (float64) phase still scores each sampled user's catalog once, while each
// out-of-sample (float32) turn takes one bound row and asks the list body
// for the items it keeps, never all of them: exactly 3 943 of their 17 085
// items on this fixture, which a change to the bound, the blocks or the scan
// moves. Around a base with a float64 bulk body alone (f64) there is no
// bound row, and the second pass costs what the first did. Sampled OSLG
// with two workers, so both phases run.
func TestPipelineScoresEachUserOnce(t *testing.T) {
	train := pipelineFixture(t).Train
	users, catalog := int64(train.NumUsers()), int64(train.NumItems())
	sampled := users / 4
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
				WithSampleSize(int(sampled)), WithWorkers(2), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			pass := func(name string) {
				base.reset()
				if _, err := p.RecommendAll(ctx); err != nil {
					t.Fatal(err)
				}
				if got := base.pointwise.Load(); got != 0 {
					t.Errorf("%s: %d pointwise Score calls, want none", name, got)
				}
			}
			onePerUser := func(name string) {
				if got := base.catalog.Load() + base.list.Load(); got != users {
					t.Errorf("%s: %d bulk calls into the base model for %d users, want one per user", name, got, users)
				}
				if got := base.catalogItems.Load() + base.listItems.Load(); got != users*catalog {
					t.Errorf("%s: %d items scored in bulk, want %d", name, got, users*catalog)
				}
				if got := base.bounds.Load(); got != 0 {
					t.Errorf("%s: %d bound rows, want none", name, got)
				}
			}
			pass("first pass")
			onePerUser("first pass")
			pass("second pass")
			if width == "f64" {
				onePerUser("second pass")
				return
			}
			if got := base.catalog.Load(); got != sampled {
				t.Errorf("second pass: %d catalog calls, want one per sampled user (%d)", got, sampled)
			}
			if got := base.bounds.Load(); got != users-sampled {
				t.Errorf("second pass: %d bound rows, want one per out-of-sample user (%d)", got, users-sampled)
			}
			if got, all := base.listItems.Load(), (users-sampled)*catalog; got != 3943 {
				t.Errorf("second pass: the warm turns asked the list body for %d items (of their catalogs' %d), want 3 943", got, all)
			}
		})
	}
}
