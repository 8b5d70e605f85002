package ganc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// countingRSVD counts the calls a pipeline makes into its base model and the
// items each body scores: pointwise, the catalog body, the list body, and the
// catalog body's bound twin. It also fails the test when a user's items are
// scored twice between two resets — by the list body twice, or by the list
// body and the catalog body.
type countingRSVD struct {
	*RSVD
	t                                                         *testing.T
	pointwise, catalog, catalogItems, list, listItems, bounds atomic.Int64
	mu                                                        sync.Mutex
	listed                                                    map[UserID]map[ItemID]bool
	cataloged                                                 map[UserID]bool
}

func (c *countingRSVD) Score(u UserID, i ItemID) float64 {
	c.pointwise.Add(1)
	return c.RSVD.Score(u, i)
}

func (c *countingRSVD) ScoreUser32(u UserID, items []ItemID, out []float32) {
	c.list.Add(1)
	c.listItems.Add(int64(len(items)))
	c.mu.Lock()
	if c.listed[u] == nil {
		c.listed[u] = map[ItemID]bool{}
	}
	for _, i := range items {
		if c.listed[u][i] || c.cataloged[u] {
			c.t.Errorf("user %d: item %d scored twice in a pass", u, i)
		}
		c.listed[u][i] = true
	}
	c.mu.Unlock()
	c.RSVD.ScoreUser32(u, items, out)
}

func (c *countingRSVD) ScoreCatalog32(u UserID, out []float32) {
	c.catalog.Add(1)
	c.catalogItems.Add(int64(len(out)))
	c.mu.Lock()
	if c.cataloged[u] || len(c.listed[u]) > 0 {
		c.t.Errorf("user %d: catalog scored beside other scoring in a pass", u)
	}
	c.cataloged[u] = true
	c.mu.Unlock()
	c.RSVD.ScoreCatalog32(u, out)
}

func (c *countingRSVD) BoundCatalog32(u UserID, upper, lower []float32) bool {
	c.bounds.Add(1)
	return c.RSVD.BoundCatalog32(u, upper, lower)
}

func (c *countingRSVD) reset() {
	for _, n := range []*atomic.Int64{&c.pointwise, &c.catalog, &c.catalogItems, &c.list, &c.listItems, &c.bounds} {
		n.Store(0)
	}
	c.listed, c.cataloged = map[UserID]map[ItemID]bool{}, map[UserID]bool{}
}

// TestPipelineScoresEachUserOnce pins what a turn costs (DESIGN.md §7): no
// item is scored twice in a user's turn, a turn that needs every score
// scores the user's whole catalog in one bulk call, rated items included, and
// builds no candidate list, and a bounded turn scores only what its bound rows
// keep. On a fresh GANC(RSVD, θ, Dyn) pipeline the sequential (float64) phase
// scores each sampled user's catalog once. Each out-of-sample (float32) turn
// is a first touch of the normaliser: it takes one bound row (upper and
// lower), certifies the user's range from it, and asks the list body for the
// items the certification and the walk keep — exactly 6 562 of their 17 085
// items in 476 calls on this fixture. In the second pass, the ranges cached,
// each out-of-sample turn takes one bound row and asks for exactly 3 943 items
// in 223 calls. A change to the bound, the blocks or the scans moves these
// counts. Around a base with a float64 bulk body alone (f64) there is no bound
// row, and both passes cost one catalog call a user. Sampled OSLG with two
// workers, so both phases run.
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
			base := &countingRSVD{RSVD: m, t: t}
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
			bounded := func(name string, listItems, lists int64) {
				if got := base.catalog.Load(); got != sampled {
					t.Errorf("%s: %d catalog calls, want one per sampled user (%d)", name, got, sampled)
				}
				if got := base.bounds.Load(); got != users-sampled {
					t.Errorf("%s: %d bound rows, want one per out-of-sample user (%d)", name, got, users-sampled)
				}
				if got, calls, all := base.listItems.Load(), base.list.Load(), (users-sampled)*catalog; got != listItems || calls != lists {
					t.Errorf("%s: the bounded turns asked the list body for %d items (of their catalogs' %d) in %d calls, want %d in %d", name, got, all, calls, listItems, lists)
				}
			}
			pass("first pass")
			if width == "f64" {
				onePerUser("first pass")
				pass("second pass")
				onePerUser("second pass")
				return
			}
			bounded("first pass", 6562, 476)
			pass("second pass")
			bounded("second pass", 3943, 223)
		})
	}
}
