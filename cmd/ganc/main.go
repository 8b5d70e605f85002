// Command ganc trains a base recommender on a ratings file (or a synthetic
// preset), assembles the GANC re-ranking pipeline on top of it and either
// prints top-N recommendations, evaluates the result against a held-out test
// split, or saves the trained pipeline as a snapshot. It does not listen:
// serving a snapshot over HTTP is cmd/gancd's job.
//
// The accuracy recommender and the optional reranker are resolved by name
// from the model registry, so any base/reranker combination can be selected
// from flags.
//
// -save writes a versioned snapshot (dataset, trained base, θ preferences,
// coverage state) of a GANC pipeline; -load restores one without retraining
// and prints its lists.
//
// Examples:
//
//	# Evaluate GANC(RSVD, θ^G, Dyn) on a synthetic ML-100K stand-in.
//	ganc -preset ML-100K -arec RSVD -theta G -crec Dyn -evaluate
//
//	# Train once, snapshot, then serve the snapshot with streaming ingestion.
//	ganc -preset ML-1M -arec Pop -save model.snap
//	gancd -load model.snap -serve :8080 -ingest-log events.log -checkpoint-interval 1000
//
//	# Evaluate a registry baseline instead of GANC (any -rerank name works).
//	ganc -preset ML-100K -arec RSVD -rerank RBT-Pop -evaluate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"

	"ganc"
)

// options is the parsed command line.
type options struct {
	ratings, preset           string
	scale, kappa              float64
	arec, rerank, theta, crec string
	n, sample, workers, show  int
	seed                      int64
	evaluate                  bool
	save, load                string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "ganc:", err)
		os.Exit(1)
	}
}

// run executes one invocation: results (lists, the metrics report) go to
// stdout, progress to stderr. Every failure path returns a clear error;
// nothing panics or exits.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("ganc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.ratings, "ratings", "", "path to a ratings file (CSV, MovieLens ::, or tab separated)")
	fs.StringVar(&o.preset, "preset", "ML-100K", "synthetic preset to use when -ratings is not given")
	fs.Float64Var(&o.scale, "scale", 0.25, "synthetic preset scale")
	fs.Float64Var(&o.kappa, "kappa", 0.8, "per-user train ratio")
	fs.StringVar(&o.arec, "arec", "RSVD", "accuracy recommender: "+strings.Join(ganc.BaseNames(), ", "))
	fs.StringVar(&o.rerank, "rerank", "GANC", "reranker applied on top of -arec: "+strings.Join(ganc.RerankerNames(), ", ")+", or \"none\" for the raw base model")
	fs.StringVar(&o.theta, "theta", "G", "long-tail preference model: A, N, T, G, R, C (GANC only)")
	fs.StringVar(&o.crec, "crec", "Dyn", "coverage recommender (GANC only): "+strings.Join(ganc.CoverageNames(), ", "))
	fs.IntVar(&o.n, "n", 5, "top-N size")
	fs.IntVar(&o.sample, "sample", 0, "OSLG sample size (0 = fully sequential)")
	fs.IntVar(&o.workers, "workers", 1, "worker goroutines for the parallel phases of GANC")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.evaluate, "evaluate", false, "evaluate against the held-out split instead of printing recommendations")
	fs.IntVar(&o.show, "show", 3, "number of users whose recommendations are printed")
	fs.StringVar(&o.save, "save", "", "write a warm-start snapshot of the assembled GANC pipeline to this path")
	fs.StringVar(&o.load, "load", "", "load a snapshot written by -save instead of training (skips -ratings/-preset)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var engine ganc.Engine
	var split *ganc.Split // the held-out split exists only at train time
	var train *ganc.Dataset
	if o.load != "" {
		p, err := loadSnapshot(o, stderr)
		if err != nil {
			return err
		}
		engine, train = p, p.Train()
	} else {
		var err error
		if engine, split, err = trainEngine(o, stderr); err != nil {
			return err
		}
		train = split.Train
	}

	fmt.Fprintf(stderr, "running %s ...\n", engine.Name())
	recs, err := engine.RecommendAll(context.Background())
	if err != nil {
		return err
	}
	if o.evaluate {
		printReport(stdout, ganc.NewEvaluator(split, 0).Evaluate(engine.Name(), recs, o.n), o.n)
	} else {
		printRecommendations(stdout, recs, train, o.show)
	}
	return nil
}

// trainEngine generates or reads the data, splits it, trains the requested
// engine on the train side and applies -save.
func trainEngine(o options, stderr io.Writer) (ganc.Engine, *ganc.Split, error) {
	data, err := loadData(o.ratings, o.preset, o.scale)
	if err != nil {
		return nil, nil, err
	}
	split := data.SplitByUser(o.kappa, rand.New(rand.NewSource(o.seed)))
	fmt.Fprintf(stderr, "dataset %s: %d users, %d items, %d train / %d test ratings\n",
		data.Name(), data.NumUsers(), data.NumItems(), split.Train.NumRatings(), split.Test.NumRatings())
	engine, err := buildEngine(split.Train, o)
	if err != nil {
		return nil, nil, err
	}
	// Saved before anything runs: the snapshot holds the pristine pre-sweep
	// coverage state, and -evaluate -save means "snapshot the trained
	// pipeline AND report its metrics".
	if o.save != "" {
		p, ok := engine.(*ganc.Pipeline)
		if !ok {
			return nil, nil, fmt.Errorf("-save supports GANC pipelines only (use -rerank GANC); %s has no snapshot format", engine.Name())
		}
		if err := p.Save(o.save); err != nil {
			return nil, nil, fmt.Errorf("saving snapshot: %w", err)
		}
		fmt.Fprintf(stderr, "saved warm-start snapshot to %s\n", o.save)
	}
	return engine, split, nil
}

// loadSnapshot restores the pipeline -load names, refusing the flags a
// snapshot cannot honor.
func loadSnapshot(o options, stderr io.Writer) (*ganc.Pipeline, error) {
	switch {
	case o.ratings != "":
		return nil, fmt.Errorf("-load and -ratings are mutually exclusive: a snapshot carries its own dataset")
	case o.evaluate:
		return nil, fmt.Errorf("-load cannot be combined with -evaluate: a snapshot has no held-out test split (evaluate at train time, before -save)")
	case o.save != "":
		return nil, fmt.Errorf("-load and -save are mutually exclusive")
	}
	p, err := ganc.LoadEngine(o.load)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "loaded %s from %s: %d users, %d items, %d ratings\n",
		p.Name(), o.load, p.Train().NumUsers(), p.Train().NumItems(), p.Train().NumRatings())
	return p, nil
}

// printReport prints the metrics of the engine's batch output against the
// held-out split.
func printReport(w io.Writer, rep ganc.Report, n int) {
	fmt.Fprintf(w, "%-40s\n", rep.Algorithm)
	fmt.Fprintf(w, "  Precision@%d   : %.4f\n", n, rep.Precision)
	fmt.Fprintf(w, "  Recall@%d      : %.4f\n", n, rep.Recall)
	fmt.Fprintf(w, "  F-measure@%d   : %.4f\n", n, rep.FMeasure)
	fmt.Fprintf(w, "  LTAccuracy@%d  : %.4f\n", n, rep.LTAccuracy)
	fmt.Fprintf(w, "  StratRecall@%d : %.4f\n", n, rep.StratRecall)
	fmt.Fprintf(w, "  Coverage@%d    : %.4f\n", n, rep.Coverage)
	fmt.Fprintf(w, "  Gini@%d        : %.4f\n", n, rep.Gini)
}

// printRecommendations prints the first `show` users' lists with external
// identifiers.
func printRecommendations(w io.Writer, recs ganc.Recommendations, train *ganc.Dataset, show int) {
	users := make([]ganc.UserID, 0, len(recs))
	for u := range recs {
		users = append(users, u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })
	if show < len(users) {
		users = users[:show]
	}
	for _, u := range users {
		key := train.UserInterner().Key(int32(u))
		fmt.Fprintf(w, "user %s:", key)
		for _, i := range recs[u] {
			fmt.Fprintf(w, " %s", train.ItemInterner().Key(int32(i)))
		}
		fmt.Fprintln(w)
	}
}

// buildEngine assembles the requested engine: a full GANC pipeline (the
// default), a registry reranker over the named base, or the raw base model.
func buildEngine(train *ganc.Dataset, o options) (ganc.Engine, error) {
	if o.rerank == "GANC" {
		spec, err := ganc.ParseCoverage(o.crec)
		if err != nil {
			return nil, err
		}
		return ganc.NewPipeline(train,
			ganc.WithBaseNamed(o.arec),
			ganc.WithPreferences(ganc.ParsePreferenceModel(o.theta)),
			ganc.WithCoverage(spec),
			ganc.WithTopN(o.n),
			ganc.WithSampleSize(o.sample),
			ganc.WithWorkers(o.workers),
			ganc.WithSeed(o.seed))
	}
	base, err := ganc.NewBaseScorer(o.arec, train, o.seed)
	if err != nil {
		return nil, err
	}
	if o.rerank == "none" {
		return ganc.NewBaseEngine(base, train, o.n), nil
	}
	return ganc.NewReranker(o.rerank, train, base, o.n, o.seed)
}

// loadData resolves the input dataset, failing fast with a clear message when
// the ratings path does not exist instead of surfacing a bare open error deep
// in a parse stack.
func loadData(path, preset string, scale float64) (*ganc.Dataset, error) {
	if path != "" {
		if _, err := os.Stat(path); err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("ratings file %s does not exist (check -ratings, or drop it to use the -preset synthetic data)", path)
			}
			return nil, fmt.Errorf("ratings file %s is not readable: %w", path, err)
		}
		return ganc.LoadRatings(path, ganc.LoadOptions{Name: path})
	}
	return ganc.GeneratePreset(preset, scale)
}
