package ganc_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"

	"ganc"
)

// The ten-minute tour: generate a small synthetic MovieLens-100K stand-in,
// assemble GANC(Pop, θ^G, Dyn) with a single NewPipeline call, compare it
// against the plain popularity recommender on the held-out split, then take
// the online path — one user's list computed on demand, as the serving layer
// does it.
func Example_quickstart() {
	// A calibrated synthetic stand-in for ML-100K at 10% scale. To use a real
	// ratings file instead, see ganc.LoadRatings.
	data, err := ganc.GenerateML100K(0.1)
	if err != nil {
		log.Fatal(err)
	}
	split := ganc.SplitByUser(data, 0.8, rand.New(rand.NewSource(7)))

	// The popularity accuracy recommender from the registry, the learned
	// generalized preferences (Eq. II.4–II.6) and the dynamic coverage
	// recommender.
	const n = 5
	p, err := ganc.NewPipeline(split.Train,
		ganc.WithBaseNamed("Pop"),
		ganc.WithPreferences(ganc.PreferenceGeneralized),
		ganc.WithCoverage(ganc.CoverageDyn()),
		ganc.WithTopN(n),
		ganc.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled", p.Name())

	// Batch generation through the Engine interface, for GANC and for the
	// baseline it re-ranks.
	ctx := context.Background()
	gancRecs, err := p.RecommendAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pop := ganc.NewBaseEngine(ganc.NewPop(split.Train), split.Train, n)
	popRecs, err := pop.RecommendAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("a list for every user:", len(gancRecs) == split.Train.NumUsers())

	// Both on the held-out test set (see ganc.Report for the other Table III
	// metrics).
	ev := ganc.NewEvaluator(split, 0)
	popReport := ev.Evaluate(pop.Name(), popRecs, n)
	gancReport := ev.Evaluate(p.Name(), gancRecs, n)
	fmt.Println("GANC covers more of the catalog than Pop:", gancReport.Coverage > popReport.Coverage)

	// The online path: no batch precomputation required. This is what
	// GET /recommend?user=X serves.
	set, err := p.RecommendUser(ctx, 0, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("on demand, user %s gets %d items\n", split.Train.UserInterner().Key(0), len(set))

	// Output:
	// assembled GANC(Pop, θ^G, Dyn)
	// a list for every user: true
	// GANC covers more of the catalog than Pop: true
	// on demand, user u0000000 gets 5 items
}

// Persistence and streaming ingestion end to end: cold-train a pipeline,
// snapshot it, warm-start a second engine from the snapshot, check the two
// recommend identically, then stream new interaction events through an
// Ingestor and checkpoint the evolved state.
func Example_warmStart() {
	data, err := ganc.GenerateML100K(0.1)
	if err != nil {
		log.Fatal(err)
	}
	split := ganc.SplitByUser(data, 0.8, rand.New(rand.NewSource(1)))

	// Cold start: train the base model and assemble the pipeline.
	cfg := ganc.DefaultRSVDConfig()
	cfg.Factors = 8
	cfg.Epochs = 3
	model, err := ganc.TrainRSVD(split.Train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := ganc.NewPipeline(split.Train, ganc.WithBase(model), ganc.WithTopN(10))
	if err != nil {
		log.Fatal(err)
	}

	// Save, then warm-start a second engine from the snapshot: nothing is
	// retrained.
	dir, err := os.MkdirTemp("", "ganc-warm-start")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapPath := filepath.Join(dir, "engine.snap")
	if err := pipeline.Save(snapPath); err != nil {
		log.Fatal(err)
	}
	loaded, err := ganc.LoadEngine(snapPath)
	if err != nil {
		log.Fatal(err)
	}

	// Parity: the loaded engine recommends exactly what the saved one does.
	ctx := context.Background()
	want, err := pipeline.RecommendAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	got, err := loaded.RecommendAll(ctx)
	if err != nil {
		log.Fatal(err)
	}
	same := len(got) == len(want)
	for u, list := range want {
		same = same && fmt.Sprint(got[u]) == fmt.Sprint(list)
	}
	fmt.Println("loaded == saved:", same)

	// Stream new interactions into the loaded engine: a write-ahead log, and
	// checkpoints only when asked for.
	ing, err := ganc.NewIngestor(nil, loaded,
		ganc.WithIngestLog(filepath.Join(dir, "events.log")),
		ganc.WithIngestCheckpoint(snapPath, 0))
	if err != nil {
		log.Fatal(err)
	}
	defer ing.Close()
	res, err := ing.Apply(ctx, []ganc.IngestEvent{
		{User: split.Train.UserInterner().Key(0), Item: "i0000003", Value: 5},
		{User: "newcomer-1", Item: "i0000010", Value: 4},
		{User: "newcomer-1", Item: "i0000011", Value: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ingested through seq", res.Seq)
	if err := ing.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	resumed, err := ganc.LoadEngine(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	_, known := resumed.Train().UserInterner().Lookup("newcomer-1")
	fmt.Printf("the checkpoint holds %d more ratings, and the newcomer: %v\n",
		resumed.Train().NumRatings()-split.Train.NumRatings(), known)

	// Output:
	// loaded == saved: true
	// ingested through seq 3
	// the checkpoint holds 3 more ratings, and the newcomer: true
}

// Online serving, one user at a time: a pipeline behind the HTTP server
// answers GET /recommend?user=X by computing that user's list on demand —
// with an LRU cache and atomic engine swaps on retrain. The whole lifecycle in-process: cold request, cache hit, batch
// lookup, then a retrain swap.
func Example_onlineServing() {
	data, err := ganc.GenerateML100K(0.1)
	if err != nil {
		log.Fatal(err)
	}
	split := ganc.SplitByUser(data, 0.8, rand.New(rand.NewSource(31)))

	// GANC(Pop, θ^T, Dyn) behind the serving layer. Nothing is precomputed.
	const n = 10
	p, err := ganc.NewPipeline(split.Train,
		ganc.WithBaseNamed("Pop"),
		ganc.WithPreferences(ganc.PreferenceTFIDF),
		ganc.WithTopN(n))
	if err != nil {
		log.Fatal(err)
	}
	srv, err := ganc.NewServer(split.Train, p, n)
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	users := split.Train.UserInterner()

	// The first request computes the list, for this user only; the second is
	// served from the cache.
	for range 2 {
		resp, err := http.Get(ts.URL + "/recommend?user=" + users.Key(0))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Println("GET /recommend:", resp.StatusCode)
	}
	stats := srv.Stats()
	fmt.Printf("cache: %d miss, %d hit\n", stats.Misses, stats.Hits)

	// Many users in one call.
	body := fmt.Sprintf(`{"users":[%q,%q]}`, users.Key(1), users.Key(2))
	resp, err := http.Post(ts.URL+"/recommend/batch", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("POST /recommend/batch:", resp.StatusCode)

	// A nightly retrain: swap in a new engine atomically. In-flight requests
	// finish against the old engine; new ones see version 2.
	p2, err := ganc.NewPipeline(split.Train,
		ganc.WithBaseNamed("Pop"),
		ganc.WithPreferences(ganc.PreferenceTFIDF),
		ganc.WithTopN(n),
		ganc.WithSeed(32))
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Update(p2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after Update: version", srv.Version())

	// Output:
	// GET /recommend: 200
	// GET /recommend: 200
	// cache: 1 miss, 1 hit
	// POST /recommend/batch: 200
	// after Update: version 2
}
