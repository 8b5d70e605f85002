// Command loadgen drives seeded synthetic traffic at the serving layer and
// fails on anything a client would have seen go wrong. It is a drill runner,
// not the benchmark: the numbers the repo tracks come from
// `bash benchmark/run.sh` (BENCHMARK.json); what loadgen prints, and writes
// with -out, describes the one run it just did.
//
// Every self-hosted run is a list of scenario definitions (internal/simulate's
// phase vocabulary, the same one the tier-2 TestScenario* suite uses), each
// run on a fresh system through the scenario runner, which owns the
// choreography and every assertion. A pure function maps the flags to them:
//
//   - by default: [train, serve-under-load] on one node — the Pipeline,
//     Server and Ingestor assembly gancd's standalone role serves, with the
//     metrics registry mounted and ingestion enabled when the mix sends
//     writes;
//   - -overload: [train, overload] on one node built with admission control
//     (the cap defaults to a quarter of -concurrency, so offered load exceeds
//     capacity by construction) — shedding with typed 429s, zero 5xx and a
//     bounded served p99 are required;
//   - -cluster N: [train, serve-under-load] on an N-shard cluster behind the
//     scatter-gather router — the steady-state run the drills' numbers are
//     read against; each drill flag below adds one scenario on a fresh
//     cluster;
//   - -replicas R (R > 0): [train, serve-under-load{kill shard 0's primary
//     150ms in, read-only}, promote-replica] — the router's replica failover
//     must keep the error count at zero, and the promoted replica's owned-user
//     output must be byte-identical to an uninterrupted single-node shadow
//     (DESIGN.md §13);
//   - -autofail: the same with await-promotion in place of promote-replica,
//     on a cluster whose failure detector is armed — nobody calls Promote; the
//     detector must bump the ring epoch on its own, and the phase records how
//     long after the kill it did (DESIGN.md §15). -write-quorum K makes every
//     committed batch quorum-acknowledged;
//   - -reshard M: [train, serve-under-load{grow to M shards 150ms in, reads
//     and writes}] — zero client-visible errors across the cutover
//     (DESIGN.md §14).
//
// Against -url it is a pure driver for an externally running server — the
// universe flags must then match the dataset the target was trained on,
// because request user keys are derived from the generated universe. Only
// -url runs take -ingest-batch and -request-zipf: scenario phases have no
// such knob.
//
// -out writes the run's record as JSON (the scenario results of a
// self-hosted run, a BenchReport of a -url run); without it nothing is
// written.
//
// Examples:
//
//	# A 100k-user universe, read-heavy mix, one self-hosted node.
//	loadgen -users 100000 -items 10000 -ratings 1000000 -requests 20000
//
//	# Quick smoke for CI.
//	loadgen -users 2000 -items 500 -ratings 40000 -requests 2000 -out loadgen-serve.json
//
//	# Drive an already running server.
//	ganc -preset ML-100K -arec Pop -save model.snap
//	gancd -load model.snap -serve :8080 &
//	loadgen -url http://127.0.0.1:8080 -users 943 ...
//
//	# Failover drill on a 3-shard cluster with one replica per shard.
//	loadgen -cluster 3 -replicas 1 -users 2000 -items 500 -ratings 40000 -requests 2000
//
//	# Elastic reshard drill: grow 2 shards to 3 mid-run, zero errors required.
//	loadgen -cluster 2 -reshard 3 -users 2000 -items 500 -ratings 40000 -requests 2000
//
//	# Overload drill: admission-controlled node, offered load beyond
//	# capacity, graceful shedding required (typed 429s, zero 5xx).
//	loadgen -overload -users 2000 -items 500 -ratings 40000 -requests 4000 -max-concurrent 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ganc"
)

func main() {
	if err := run(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// options is the parsed and validated command line.
type options struct {
	universe ganc.UniverseConfig
	arec     string
	theta    string
	topN     int
	cache    int
	url      string
	out      string
	load     ganc.LoadConfig

	shards      int
	replicas    int
	writeQuorum int
	autoFail    bool
	reshardTo   int

	overload bool
	admit    ganc.AdmissionConfig
}

// run parses the command line and executes the selected mode.
func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.url != "" {
		return runURL(o)
	}
	return runScenarios(o)
}

// parseFlags maps the command line to options, rejecting flag combinations
// no mode can honor.
func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	users := fs.Int("users", 100_000, "universe user count")
	items := fs.Int("items", 10_000, "universe item count")
	ratings := fs.Int("ratings", 1_000_000, "universe rating count")
	zipf := fs.Float64("zipf", 1.1, "item-popularity Zipf exponent")
	seed := fs.Int64("seed", 1, "universe and stream seed")
	arec := fs.String("arec", "Pop", "accuracy recommender for the served pipeline")
	theta := fs.String("theta", "T", "preference model: A, N, T, G, R, C (cheap estimators recommended at scale)")
	topN := fs.Int("n", 10, "serving list size")
	cache := fs.Int("cache", 0, "serving LRU capacity per node (0 = serving default)")
	url := fs.String("url", "", "drive this external server instead of self-hosting")
	requests := fs.Int("requests", 20_000, "total requests in the closed loop")
	concurrency := fs.Int("concurrency", 16, "closed-loop worker count")
	mixRecommend := fs.Int("mix-recommend", 90, "relative weight of GET /recommend traffic")
	mixBatch := fs.Int("mix-batch", 8, "relative weight of POST /recommend/batch traffic")
	mixIngest := fs.Int("mix-ingest", 2, "relative weight of POST /ingest traffic")
	batchSize := fs.Int("batch", 20, "users per batch request")
	ingestBatch := fs.Int("ingest-batch", 20, "-url runs: events per ingest request")
	reqZipf := fs.Float64("request-zipf", 1.0, "-url runs: request-popularity skew across users")
	out := fs.String("out", "", "write the run's record as JSON to this path (default: write nothing)")
	clusterShards := fs.Int("cluster", 0, "run the load and the requested drills as scenarios against an N-shard cluster (0 = one node)")
	clusterReplicas := fs.Int("replicas", 0, "cluster mode: warm replicas per shard; > 0 adds the mid-run primary-kill failover drill")
	writeQuorum := fs.Int("write-quorum", 0, "cluster mode: k-of-n quorum writes — every committed batch waits for k replica acks (0 = fire-and-forget)")
	autoFail := fs.Bool("autofail", false, "cluster mode: hands-off failover drill — kill a primary mid-run with auto-failover armed and require a detector-driven promotion with zero client errors (replaces the manual failover drill)")
	reshardTo := fs.Int("reshard", 0, "cluster mode: adds the drill that grows the cluster to this shard count mid-run (0 = no drill)")
	overload := fs.Bool("overload", false, "overload drill: a node with admission control, offered load beyond capacity, graceful shedding required (typed 429s, zero 5xx)")
	rateLimit := fs.Float64("rate-limit", 0, "overload mode: per-client sustained requests/second (0 = no rate gate)")
	rateBurst := fs.Float64("rate-burst", 0, "overload mode: per-client burst allowance (0 = max(rate-limit, 1))")
	maxConcurrent := fs.Int("max-concurrent", 0, "overload mode: concurrency cap inside handlers (0 with no -rate-limit = defaults to concurrency/4, forcing overload)")
	maxWaitMs := fs.Int("max-wait-ms", 0, "overload mode: how long an over-capacity request waits before the 429 (0 = shed immediately)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}

	var err error
	switch {
	case *clusterShards > 0 && *url != "":
		err = fmt.Errorf("-cluster and -url are mutually exclusive: cluster scenarios self-host their target")
	case *url != "" && *overload:
		err = fmt.Errorf("-url and -overload are mutually exclusive: the overload drill is a scenario on a self-hosted node")
	case *clusterShards > 0 && *overload:
		err = fmt.Errorf("-cluster and -overload are mutually exclusive: the overload drill is a scenario on a single self-hosted node")
	case *clusterReplicas > 0 && *clusterShards <= 0:
		err = fmt.Errorf("-replicas requires -cluster (replicas are a property of the sharded target)")
	case *reshardTo > 0 && *clusterShards <= 0:
		err = fmt.Errorf("-reshard requires -cluster (the drill grows the sharded target)")
	case *reshardTo > 0 && *reshardTo <= *clusterShards:
		err = fmt.Errorf("-reshard must exceed -cluster: the drill grows %d shards to a larger ring", *clusterShards)
	case *autoFail && *clusterReplicas < 1:
		err = fmt.Errorf("-autofail requires -cluster with -replicas >= 1 (the detector needs a replica to promote)")
	case *writeQuorum > 0 && *writeQuorum > *clusterReplicas:
		err = fmt.Errorf("-write-quorum %d exceeds -replicas %d", *writeQuorum, *clusterReplicas)
	case *url == "":
		// Scenario phases carry no knob for these, and a flag that is
		// accepted but changes nothing makes a number nobody can explain.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ingest-batch", "request-zipf":
				err = fmt.Errorf("-%s is a -url flag: a self-hosted run is scenario phases, which have no such knob", f.Name)
			}
		})
	}
	if err != nil {
		return options{}, err
	}

	o := options{
		universe: ganc.UniverseConfig{
			Name: "loadgen", Users: *users, Items: *items, Ratings: *ratings, ZipfExponent: *zipf, Seed: *seed,
		},
		arec: *arec, theta: *theta, topN: *topN, cache: *cache, url: *url, out: *out,
		load: ganc.LoadConfig{
			Requests:        *requests,
			Concurrency:     *concurrency,
			Mix:             ganc.LoadMix{Recommend: *mixRecommend, Batch: *mixBatch, Ingest: *mixIngest},
			BatchSize:       *batchSize,
			IngestBatchSize: *ingestBatch,
			RequestZipf:     *reqZipf,
			Seed:            *seed,
		},
		shards: *clusterShards, replicas: *clusterReplicas, writeQuorum: *writeQuorum,
		autoFail: *autoFail, reshardTo: *reshardTo,
		overload: *overload,
		admit: ganc.AdmissionConfig{
			RatePerSec:    *rateLimit,
			Burst:         *rateBurst,
			MaxConcurrent: *maxConcurrent,
			MaxWait:       time.Duration(*maxWaitMs) * time.Millisecond,
		},
	}
	if o.overload && *rateLimit <= 0 && *maxConcurrent <= 0 {
		// No admission flag given: cap concurrency at a quarter of the offered
		// worker count, so the closed loop overruns capacity by construction.
		o.admit.MaxConcurrent = max(*concurrency/4, 1)
	}
	return o, nil
}

// runURL drives the load against the external server at -url and, with
// -out, writes the report. It fails on any server-side error, and on
// rejected traffic that says the universe flags do not match the target.
func runURL(o options) error {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating universe: %d users × %d items, %d ratings ...\n",
		o.universe.Users, o.universe.Items, o.universe.Ratings)
	u, err := ganc.NewUniverse(o.universe)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "universe ready in %.1fs (%d ratings)\n",
		time.Since(start).Seconds(), u.Train().NumRatings())

	load := o.load
	load.BaseURL = o.url
	fmt.Fprintf(os.Stderr, "driving %d requests × %d workers against %s ...\n",
		load.Requests, load.Concurrency, load.BaseURL)
	res, err := ganc.RunLoad(context.Background(), u, load)
	if err != nil {
		return err
	}
	printSummary(res)

	// The target's /info is authoritative for what was actually measured:
	// the local -n/-arec flags describe nothing here.
	rep := &ganc.BenchReport{
		Universe: u.Config(),
		Engine:   res.Model,
		TopN:     res.TopN,
		Load:     load,
		Result:   res,
	}
	if err := writeOut(o.out, rep); err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed server-side", res.Errors, res.Requests)
	}
	// Rejected (4xx) traffic means the driver and the target disagree — the
	// universe flags don't match the served dataset, or /ingest is disabled —
	// and its fast error responses would silently flatter every latency
	// percentile. A trace of legitimate 404s (a user with an exhausted
	// candidate set) is tolerated; more fails the run.
	if res.Rejected*200 > res.Requests {
		return fmt.Errorf("%d of %d requests were rejected (4xx): universe flags likely do not match the target "+
			"(check -users/-items/-seed, or -mix-ingest 0 for targets without ingestion)", res.Rejected, res.Requests)
	}
	return nil
}

// scenarios maps the flags to the scenarios a self-hosted run executes: the
// steady-state load or the overload drill on one node, or — with -cluster —
// the steady-state load and then one scenario per requested drill. Every
// cluster drill is a serve-under-load phase with a mid-load event 150ms in;
// the scenario runner owns the choreography and the assertions (zero
// client-visible errors, the epoch bump, shadow parity after a promotion,
// shedding under overload) — see the package comment for the phase lists.
func scenarios(o options) []ganc.Scenario {
	const midLoadMs = 150
	scenario := func(name string, load ganc.ScenarioPhase, after ...ganc.ScenarioPhase) ganc.Scenario {
		if load.Kind == "" {
			load.Kind = ganc.PhaseServeUnderLoad
		}
		load.Requests, load.Concurrency, load.BatchSize = o.load.Requests, o.load.Concurrency, o.load.BatchSize
		if load.Mix == (ganc.LoadMix{}) {
			load.Mix = o.load.Mix
		}
		return ganc.Scenario{
			Name:     name,
			Universe: o.universe,
			TopN:     o.topN,
			Seed:     o.load.Seed,
			Phases:   append([]ganc.ScenarioPhase{{Kind: ganc.PhaseTrain}, load}, after...),
		}
	}
	if o.overload {
		return []ganc.Scenario{scenario("overload", ganc.ScenarioPhase{Kind: ganc.PhaseOverload})}
	}
	scs := []ganc.Scenario{scenario("load", ganc.ScenarioPhase{})}
	if o.replicas > 0 {
		// Writes cannot fail over (the shard's write-ahead log dies with its
		// primary), so the kill drills drive the read path only.
		readOnly := o.load.Mix
		readOnly.Ingest = 0
		killed := 0
		kill := ganc.ScenarioPhase{Mix: readOnly, KillShardMid: &killed, MidLoadDelayMs: midLoadMs}
		name, promote := "failover", ganc.PhasePromoteReplica
		if o.autoFail {
			// The hands-off drill replaces the manual one: the armed detector
			// would race a promote-replica phase.
			name, promote = "auto-failover", ganc.PhaseAwaitPromotion
		}
		scs = append(scs, scenario(name, kill, ganc.ScenarioPhase{Kind: promote, Shard: killed}))
	}
	if o.reshardTo > 0 {
		// The cutover must be invisible to writes too: a read-only mix gets a
		// small ingest weight so the drill exercises write routing across the
		// ring transition.
		mixed := o.load.Mix
		mixed.Ingest = max(mixed.Ingest, 2)
		target := o.reshardTo
		scs = append(scs, scenario("reshard", ganc.ScenarioPhase{Mix: mixed, ReshardMid: &target, MidLoadDelayMs: midLoadMs}))
	}
	return scs
}

// runScenarios executes the flag-selected scenarios, each against a fresh
// node or cluster, prints what each phase recorded and, with -out, writes
// the scenario results. The first failed assertion ends the run.
func runScenarios(o options) error {
	sys := ganc.SimSystemConfig{
		Base:          o.arec,
		Theta:         ganc.ParsePreferenceModel(o.theta),
		CacheCapacity: o.cache,
		Seed:          o.load.Seed,
	}
	if o.shards == 0 {
		// A node serves the production configuration — metrics registry
		// mounted, request instrumentation on the hot path — so the run
		// prices the instrumented serving stack rather than an idealized
		// bare one.
		sys.Metrics = true
		if o.overload {
			sys.Admission = o.admit
			fmt.Fprintf(os.Stderr, "overload drill: admission rate=%.1f/s burst=%.1f max-concurrent=%d max-wait=%s\n",
				o.admit.RatePerSec, o.admit.Burst, o.admit.MaxConcurrent, o.admit.MaxWait)
		}
	}
	var copts []ganc.ClusterOption
	if o.writeQuorum > 0 {
		copts = append(copts, ganc.WithWriteQuorum(o.writeQuorum))
	}
	if o.autoFail {
		// A tight suspicion window keeps the drill (and CI) fast: 50ms
		// sampling, 3 consecutive misses → suspicion after ~150ms.
		copts = append(copts, ganc.WithAutoFailover(), ganc.WithFailureDetection(50*time.Millisecond))
	}
	target := "one node"
	if o.shards > 0 {
		target = fmt.Sprintf("%d shards × %d replicas", o.shards, o.replicas)
	}
	var results []*ganc.ScenarioResult
	var runErr error
	for _, sc := range scenarios(o) {
		fmt.Fprintf(os.Stderr, "scenario %q: %s, %d requests × %d workers ...\n",
			sc.Name, target, o.load.Requests, o.load.Concurrency)
		res, err := runScenario(sc, sys, o, copts)
		if res != nil {
			results = append(results, res)
			printScenario(res)
		}
		if err != nil {
			runErr = err
			break
		}
	}
	return errors.Join(runErr, writeOut(o.out, results))
}

// runScenario runs one scenario on a fresh node (RunScenario) or cluster
// (RunClusterScenario) whose durable files live in a temporary directory for
// the length of the run.
func runScenario(sc ganc.Scenario, sys ganc.SimSystemConfig, o options, copts []ganc.ClusterOption) (*ganc.ScenarioResult, error) {
	dir, err := os.MkdirTemp("", "loadgen-"+sc.Name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.shards == 0 {
		return ganc.RunScenario(context.Background(), sc, dir, sys)
	}
	return ganc.RunClusterScenario(context.Background(), sc, dir, sys, o.shards, o.replicas, copts...)
}

// writeOut writes the run's record to the -out path; no path, no file.
func writeOut(path string, rep interface{}) error {
	if path == "" {
		return nil
	}
	if err := ganc.WriteBenchReport(path, rep); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// printScenario reports what each phase of a scenario recorded on stderr.
func printScenario(res *ganc.ScenarioResult) {
	for _, ph := range res.Phases {
		if ph.Load != nil {
			printSummary(ph.Load)
		}
		if rs := ph.Reshard; rs != nil {
			fmt.Fprintf(os.Stderr, "%s: %d → %d shards (ring epoch %d), cutover %.1fms — %d users / %d events migrated, %d double-dispatched reads\n",
				res.Scenario, rs.FromShards, rs.ToShards, rs.Epoch, rs.CutoverMs, rs.UsersMigrated, rs.EventsMigrated, rs.DoubleDispatches)
		}
		switch ph.Kind {
		case ganc.PhasePromoteReplica:
			fmt.Fprintf(os.Stderr, "%s: promoted shard %d's freshest replica (ring epoch %d), shadow parity checked: %v\n",
				res.Scenario, ph.Shard, ph.Epoch, ph.ParityChecked)
		case ganc.PhaseAwaitPromotion:
			fmt.Fprintf(os.Stderr, "%s: detector promoted shard %d's freshest replica %.0fms after the kill (ring epoch %d), shadow parity checked: %v\n",
				res.Scenario, ph.Shard, ph.PromotionMs, ph.Epoch, ph.ParityChecked)
		}
	}
}

// printSummary reports a load run's headline numbers on stderr.
func printSummary(res *ganc.LoadResult) {
	fmt.Fprintf(os.Stderr, "done: %d requests in %.1fs → %.0f req/s, %d errors, %d rejected, %d shed (%.1f%%), cache hit rate %.3f\n",
		res.Requests, res.DurationSec, res.ThroughputRPS, res.Errors, res.Rejected, res.Shed, 100*res.ShedRate, res.CacheHitRate)
	for ep, st := range res.Endpoints {
		fmt.Fprintf(os.Stderr, "  %-10s n=%-7d p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms\n",
			ep, st.Count, st.P50Ms, st.P95Ms, st.P99Ms, st.MaxMs)
	}
}
