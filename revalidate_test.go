package ganc

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ganc/internal/ingest"
	"ganc/internal/serve"
)

// The exactness property of the cache that survives a swap: whatever the
// server answers — from a list it just computed, one the serving generation
// computed earlier, or one an older generation computed and the engine kept —
// is what RecommendUser on the newest engine returns. The test drives a node
// through a few hundred random batches on a small universe where one event in
// eight names a brand-new item, and after every batch asks the server for
// every user it has ever cached.

// revalNode is a served ingestion node plus the means to rebuild, from its
// current state, a second engine nobody has cached anything under: the
// ground truth.
type revalNode struct {
	srv     *Server
	ing     *Ingestor
	handler http.Handler
	// origin is the pipeline the node was assembled around: what
	// benchmark/probes.go republishes after newer ones.
	origin  *Pipeline
	rebuild func(*ingest.State) (*Pipeline, error)
}

// newRevalNode serves p with n-item lists behind an ingestor. kind names the
// baseKinds row pipelineFromState rebuilds through; a base scorer the table
// does not own (the stub) cannot go through NewIngestor and is wired by hand,
// the same way, as the frozen model a row without a rebuild is.
func newRevalNode(t *testing.T, p *Pipeline, kind string, n int) *revalNode {
	t.Helper()
	row := kindNamed(kind)
	if row == nil {
		t.Fatalf("no base kind %q", kind)
	}
	srv, err := NewServer(p.Train(), p, n, WithMetrics(NewMetricsRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	node := &revalNode{srv: srv, handler: srv.Handler(), origin: p,
		rebuild: func(s *ingest.State) (*Pipeline, error) { return p.pipelineFromState(row, s) }}
	if _, err := p.persistable(); err == nil {
		node.ing, err = NewIngestor(srv, p)
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	node.ing, err = ingest.New(ingest.Config{
		State:   ingest.NewStateFromDataset(p.train, p.prefs),
		Server:  srv,
		Rebuild: func(s *ingest.State) (serve.Engine, error) { return node.rebuild(s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// truth rebuilds an engine from the node's current state.
func (n *revalNode) truth(t *testing.T) *Pipeline {
	t.Helper()
	var ref *Pipeline
	var err error
	n.ing.View(func(s *ingest.State) { ref, err = n.rebuild(s) })
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// read asks the server for one user's list. An empty list is the 404 the read
// route answers it with.
func (n *revalNode) read(t *testing.T, userKey string) (items []string, version int) {
	t.Helper()
	w := httptest.NewRecorder()
	n.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/recommend?user="+userKey, nil))
	if w.Code == http.StatusNotFound {
		return nil, n.srv.Version()
	}
	if w.Code != http.StatusOK {
		t.Fatalf("recommend %s → %d: %s", userKey, w.Code, w.Body.String())
	}
	var resp serve.RecommendResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Items, resp.Version
}

// listOf is what engine computes for the user, in external keys.
func listOf(t *testing.T, engine *Pipeline, userKey string, n int) []string {
	t.Helper()
	u, ok := engine.Train().UserInterner().Lookup(userKey)
	if !ok {
		t.Fatalf("user %s is unknown to the engine", userKey)
	}
	set, err := engine.RecommendUser(context.Background(), UserID(u), n)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]string, len(set))
	for k, i := range set {
		items[k] = engine.Train().ItemInterner().Key(int32(i))
	}
	return items
}

// revalStream draws event batches over a universe that keeps growing: new
// users, new items, and pairs it has sent before.
type revalStream struct {
	rng       *rand.Rand
	train     *Dataset
	sent      []IngestEvent
	newUsers  int
	newItems  int
	itemEvery int // one event in itemEvery names a brand-new item
}

func (g *revalStream) batch(size int) []IngestEvent {
	users, items := g.train.UserInterner(), g.train.ItemInterner()
	evs := make([]IngestEvent, size)
	for k := range evs {
		if len(g.sent) > 0 && g.rng.Intn(10) == 0 {
			evs[k] = g.sent[g.rng.Intn(len(g.sent))] // a re-rated pair
			evs[k].Value = float64(1 + g.rng.Intn(5))
			continue
		}
		ev := IngestEvent{Value: float64(1 + g.rng.Intn(5))}
		if g.rng.Intn(10) == 0 {
			g.newUsers++
			ev.User = fmt.Sprintf("new-user-%d", g.newUsers)
		} else {
			ev.User = users.Key(int32(g.rng.Intn(users.Len())))
		}
		if g.rng.Intn(g.itemEvery) == 0 {
			g.newItems++
			ev.Item = fmt.Sprintf("new-item-%d", g.newItems)
		} else {
			ev.Item = items.Key(int32(g.rng.Intn(items.Len())))
		}
		evs[k] = ev
		g.sent = append(g.sent, ev)
	}
	return evs
}

// revalSeen is what a run of the property test has witnessed.
type revalSeen struct {
	outcomes     serve.RevalidationStats
	carriedFar   bool // a list kept three or more generations after it was computed
	newItemWon   bool // refused over the catalog, and a new item is in the recomputed list
	rangeMoved   bool // refused over the catalog, the recomputed list holds no new item and differs
	servedOrigin bool // the origin pipeline, republished, served its own lists
}

func (a *revalSeen) add(b revalSeen) {
	a.outcomes.Kept += b.outcomes.Kept
	a.outcomes.ItemNamed += b.outcomes.ItemNamed
	a.outcomes.Catalog += b.outcomes.Catalog
	a.outcomes.Foreign += b.outcomes.Foreign
	a.carriedFar = a.carriedFar || b.carriedFar
	a.newItemWon = a.newItemWon || b.newItemWon
	a.rangeMoved = a.rangeMoved || b.rangeMoved
	a.servedOrigin = a.servedOrigin || b.servedOrigin
}

// runRevalidationProperty applies batches random batches to the node and
// checks every cached user after each.
func runRevalidationProperty(t *testing.T, node *revalNode, n, batches int, seed int64) revalSeen {
	t.Helper()
	ctx := context.Background()
	train := node.origin.Train()
	stream := &revalStream{rng: rand.New(rand.NewSource(seed)), train: train, itemEvery: 8}
	rng := rand.New(rand.NewSource(seed + 1))
	originUsers := node.origin.Train().NumUsers()

	type cachedList struct {
		items      []string
		computedAt int // the version that computed the list
		catalog    int // the catalog that version ranked
	}
	cached := make(map[string]*cachedList)
	var seen revalSeen

	for b := 0; b < batches; b++ {
		size := 1 + rng.Intn(6)
		if b == batches/2 {
			size = 300 // what Recover applies in one piece after a restart
		}
		if _, err := node.ing.Apply(ctx, stream.batch(size)); err != nil {
			t.Fatal(err)
		}

		// The benchmark's swap probe publishes the node's first pipeline over
		// newer ones: until the next batch, the server must serve what that
		// engine computes, from no list of the stream's.
		if b%29 == 11 {
			if err := node.srv.Update(node.origin); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				key := train.UserInterner().Key(int32(rng.Intn(originUsers)))
				got, _ := node.read(t, key)
				if want := listOf(t, node.origin, key, n); !slices.Equal(got, want) {
					t.Fatalf("batch %d, origin republished: user %s served %v, the engine computes %v", b, key, got, want)
				}
				delete(cached, key) // its entry is the origin's now; the next batch recomputes it
			}
			seen.servedOrigin = true
			continue
		}

		ref := node.truth(t)
		for k := 0; k < 3; k++ { // a few first-time readers every batch
			key := train.UserInterner().Key(int32(rng.Intn(train.UserInterner().Len())))
			if cached[key] == nil {
				cached[key] = &cachedList{computedAt: -1}
			}
		}
		for key, c := range cached {
			before := node.srv.Stats()
			got, version := node.read(t, key)
			after := node.srv.Stats()
			if want := listOf(t, ref, key, n); !slices.Equal(got, want) {
				t.Fatalf("batch %d (version %d): user %s served %v, the newest engine computes %v (revalidations %+v → %+v)",
					b, version, key, got, want, before.Revalidations, after.Revalidations)
			}
			catalog := ref.Train().NumItems()
			switch {
			case after.Revalidations.Kept > before.Revalidations.Kept:
				if version-c.computedAt >= 3 {
					seen.carriedFar = true
				}
			case after.Revalidations.Catalog > before.Revalidations.Catalog:
				hasNew := slices.ContainsFunc(got, func(item string) bool {
					i, _ := train.ItemInterner().Lookup(item)
					return int(i) >= c.catalog
				})
				if hasNew {
					seen.newItemWon = true
				} else if !slices.Equal(got, c.items) {
					seen.rangeMoved = true
				}
			}
			if after.Misses > before.Misses {
				c.computedAt, c.catalog = version, catalog
			}
			c.items = got
		}
	}
	seen.outcomes = node.srv.Stats().Revalidations
	return seen
}

// coldScorer is a frozen model with a say over cold items: a pair of the
// train set's universe scores a hash in [1,5]; the k-th item the stream adds
// scores 3 (inside every user's range) for odd k and −10−k (below it, and
// below every cold item before) for even k.
type coldScorer struct{ warmItems int }

func (coldScorer) Name() string { return "Cold" }

func (c coldScorer) Score(u UserID, i ItemID) float64 {
	if k := int(i) - c.warmItems; k >= 0 {
		if k%2 == 1 {
			return 3
		}
		return float64(-10 - k)
	}
	h := uint32(u)*2654435761 ^ uint32(i)*40503
	h ^= h >> 13
	return 1 + 4*float64(h%1000)/999
}

func TestRevalidatedListsAreExact(t *testing.T) {
	const n, batches = 5, 150

	// Ingestion interns new keys into its train set's own tables, so every
	// node gets a train set of its own. A batch pass first leaves the Dyn
	// state a saved engine has: popular items already discounted, which is
	// what lets a new item win a place.
	// An "f64" row hides the model's float32 bulk body behind float64Bulk: the
	// proof must hold for a frozen scorer of either bulk width.
	factors := func(t *testing.T, float64Only bool, coverage CoverageSpec) *Pipeline {
		train := persistSplit(t, 83).Train
		cfg := DefaultRSVDConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed = 6, 2, 7
		m, err := TrainRSVD(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var base Scorer = m
		if float64Only {
			base = float64Bulk{m}
		}
		p, err := NewPipeline(train, WithBase(base), WithTopN(n), WithPreferences(PreferenceTFIDF),
			WithSeed(7), WithCoverage(coverage))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.RecommendAll(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var seen revalSeen
	for _, tc := range []struct {
		name        string
		float64Only bool
		coverage    CoverageSpec
	}{
		{"RSVD/f64/Dyn", true, CoverageDyn()},
		{"RSVD/f32/Dyn", false, CoverageDyn()},
		{"RSVD/f64/Stat", true, CoverageStat()},
		{"RSVD/f32/Stat", false, CoverageStat()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := newRevalNode(t, factors(t, tc.float64Only, tc.coverage), "RSVD", n)
			got := runRevalidationProperty(t, node, n, batches, 89)
			t.Logf("%+v", got)
			seen.add(got)
		})
	}

	// A frozen model whose cold items can score outside a user's range, which
	// a trained model's cold-item prediction (near the global mean) never
	// does here: condition (ii) has to be what refuses these lists.
	t.Run("cold-scorer/Dyn", func(t *testing.T) {
		train := persistSplit(t, 83).Train
		p, err := NewPipeline(train, WithBase(coldScorer{warmItems: train.NumItems()}),
			WithTopN(n), WithPreferences(PreferenceTFIDF), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		got := runRevalidationProperty(t, newRevalNode(t, p, "RSVD", n), n, batches, 97)
		t.Logf("%+v", got)
		if !got.rangeMoved {
			t.Error("no list was refused for a moved range alone and recomputed differently: condition (ii) went unexercised")
		}
		seen.add(got)
	})

	// Engines whose accuracy moves with a batch never carry a list.
	for _, base := range []string{"Pop", "ItemAvg", "ItemKNN"} {
		t.Run(base, func(t *testing.T) {
			node := newRevalNode(t, buildPersistablePipeline(t, persistSplit(t, 83).Train, base), base, n)
			got := runRevalidationProperty(t, node, n, 40, 101)
			if got.outcomes.Kept != 0 || got.outcomes.ItemNamed != 0 || got.outcomes.Catalog != 0 {
				t.Fatalf("a %s pipeline revalidated lists: %+v", base, got.outcomes)
			}
			if got.outcomes.Foreign == 0 {
				t.Fatal("no cached list ever met a later generation")
			}
		})
	}

	if t.Failed() {
		return
	}
	if o := seen.outcomes; o.Kept == 0 || o.ItemNamed == 0 || o.Catalog == 0 || o.Foreign == 0 {
		t.Errorf("not every outcome was observed: %+v", o)
	}
	if !seen.carriedFar {
		t.Error("no list was kept three generations after it was computed")
	}
	if !seen.newItemWon {
		t.Error("no new item ever entered a refused list: condition (iii) went unexercised")
	}
	if !seen.servedOrigin {
		t.Error("the origin pipeline was never republished")
	}
}

// TestRevalidateAnswersItemNamedExactly pins condition (i) of Revalidate to
// its meaning: against every earlier mark of its lineage, each generation
// answers RevalItemNamed for a one-item list exactly when an event after the
// mark named that item. The stream names an item with the first event of a
// batch and another with its last, re-rates a pair on its own, then runs
// irregular batches that also add items; the lineage's start is one of the
// marks. A mark past the generation's cursor, or of another lineage, answers
// RevalForeign.
func TestRevalidateAnswersItemNamedExactly(t *testing.T) {
	train := persistSplit(t, 83).Train
	cfg := DefaultRSVDConfig()
	cfg.Factors, cfg.Epochs, cfg.Seed = 6, 2, 7
	m, err := TrainRSVD(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := NewPipeline(train, WithBase(m), WithTopN(1), WithPreferences(PreferenceTFIDF), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	node := newRevalNode(t, origin, "RSVD", 1)
	users, items := train.UserInterner(), train.ItemInterner()
	ev := func(u, i int) IngestEvent {
		return IngestEvent{User: users.Key(int32(u)), Item: items.Key(int32(i)), Value: 4}
	}
	batches := [][]IngestEvent{
		{ev(0, 3), ev(1, 5), ev(2, 5), ev(3, 8)}, // item 3 first, item 8 last
		{ev(1, 5)},                               // a re-rated pair alone
	}
	stream := &revalStream{rng: rand.New(rand.NewSource(5)), train: train, itemEvery: 6}
	rng := rand.New(rand.NewSource(6))
	for len(batches) < 24 {
		batches = append(batches, stream.batch(1+rng.Intn(7)))
	}

	var events []IngestEvent // events[k] is event k+1 of the lineage
	gens := []*Pipeline{node.truth(t)}
	for _, b := range batches {
		if _, err := node.ing.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
		events = append(events, b...)
		gens = append(gens, node.truth(t))
	}
	if gens[0].Mark().Seq != 0 || gens[0].Mark().Lineage == nil {
		t.Fatalf("the first generation's mark %+v is not the lineage's start", gens[0].Mark())
	}
	if gens[len(gens)-1].Train().NumItems() == train.NumItems() {
		t.Fatal("the stream added no item")
	}

	named, kept := 0, 0
	for g, now := range gens {
		for _, from := range gens[:g+1] {
			mark := from.Mark()
			namedSince := map[string]bool{}
			for _, e := range events[mark.Seq:now.Mark().Seq] {
				namedSince[e.Item] = true
			}
			for i := 0; i < mark.Items; i++ {
				got := now.Revalidate(0, TopNSet{ItemID(i)}, 1, mark)
				if want := namedSince[items.Key(int32(i))]; (got == serve.RevalItemNamed) != want || got == serve.RevalForeign {
					t.Fatalf("generation at %d, mark at %d: item %d answers %v, named since the mark: %v",
						now.Mark().Seq, mark.Seq, i, got, want)
				}
				if got == serve.RevalItemNamed {
					named++
				} else {
					kept++
				}
			}
		}
	}
	t.Logf("%d named and %d unnamed answers over %d generations", named, kept, len(gens))
	if named == 0 || kept == 0 {
		t.Fatalf("%d named and %d unnamed answers: the property went unexercised", named, kept)
	}

	// The cases the stream was built for, by name.
	for _, c := range []struct {
		what     string
		now      *Pipeline
		from     *Pipeline
		item     int
		wantName bool
	}{
		{"the first event of a batch", gens[1], gens[0], 3, true},
		{"the last event of a batch", gens[1], gens[0], 8, true},
		{"a re-rated pair", gens[2], gens[1], 5, true},
		{"an item the re-rating batch left alone", gens[2], gens[1], 3, false},
	} {
		if got := c.now.Revalidate(0, TopNSet{ItemID(c.item)}, 1, c.from.Mark()); (got == serve.RevalItemNamed) != c.wantName {
			t.Errorf("%s: item %d answers %v", c.what, c.item, got)
		}
	}

	now := gens[len(gens)-1]
	future := now.Mark()
	future.Seq++
	foreign := now.Mark()
	foreign.Lineage = new(serve.Lineage)
	for _, c := range []struct {
		what string
		now  *Pipeline
		from serve.Mark
	}{
		{"a mark past the cursor", now, future},
		{"a mark of another lineage", now, foreign},
		{"a mark of no lineage", now, origin.Mark()},
		{"a pipeline of no lineage", origin, origin.Mark()},
	} {
		if got := c.now.Revalidate(0, TopNSet{0}, 1, c.from); got != serve.RevalForeign {
			t.Errorf("%s answers %v, want %v", c.what, got, serve.RevalForeign)
		}
	}
}
