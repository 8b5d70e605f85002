// Command experiments regenerates the paper's tables and figures on the
// synthetic calibrated datasets and prints them as text tables. Individual
// experiments can be selected with -only; by default every experiment runs.
//
// Beyond the fixed paper experiments, -compare runs an ad-hoc Table IV-style
// comparison of any base/reranker combinations constructed by name from the
// model registry: each entry is either "Base" (the raw model) or
// "Reranker@Base".
//
// Both modes assemble through the ganc facade. Output is deterministic: for a
// fixed flag set, the report bytes are identical run to run and for any
// -workers value (this package's golden-file tests pin both at -workers 1 and
// 8), so regenerated experiment artifacts diff cleanly.
//
// Examples:
//
//	experiments -scale 0.25                 # run everything at quarter scale
//	experiments -only table4,figure6       # only the Table IV and Figure 6 runs
//	experiments -only figure3 -scale 0.5   # the ML-1M sample-size sweep
//	experiments -compare RSVD,RBT-Pop@RSVD,PRA-10@RSVD,GANC@RSVD -preset ML-100K
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
	"ganc/internal/experiment"
	"ganc/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses the argument vector and executes the selected experiments,
// writing the report to stdout and progress to stderr. Separated from main
// (and writer-injected) so the golden-file determinism tests can execute the
// CLI end to end in-process.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Float64("scale", 0.2, "synthetic dataset scale (1.0 = calibrated defaults)")
	seed := fs.Int64("seed", 1, "random seed")
	n := fs.Int("n", 5, "top-N cutoff")
	sample := fs.Int("sample", 0, "OSLG sample size (0 = scaled default)")
	workers := fs.Int("workers", 1, "worker goroutines for GANC's parallel phases (output is identical for any value; Rand coverage always sweeps on one)")
	only := fs.String("only", "", "comma-separated experiment ids: table2,figure1,figure2,figure3,figure4,figure5,table4,figure6,figure7,figure8,table5")
	compare := fs.String("compare", "", "comma-separated registry combos to evaluate instead of the paper experiments: Base or Reranker@Base (bases: "+strings.Join(ganc.BaseNames(), ", ")+"; rerankers: "+strings.Join(ganc.RerankerNames(), ", ")+")")
	preset := fs.String("preset", "ML-100K", "dataset preset for -compare")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not failure
		}
		return err
	}

	if *compare != "" {
		return runCompare(stdout, stderr, *compare, *preset, *scale, *n, *sample, *workers, *seed)
	}

	s := experiment.NewSuite(synth.Scale(*scale), *seed, *n, *sample)
	s.Workers = *workers
	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	want := func(id string) bool { return len(selected) == 0 || selected[id] }

	var firstErr error
	runOne := func(id, title string, f func() (string, error)) {
		if firstErr != nil || !want(id) {
			return
		}
		fmt.Fprintf(stdout, "==== %s ====\n", title)
		text, err := f()
		if err != nil {
			firstErr = fmt.Errorf("%s failed: %w", id, err)
			return
		}
		fmt.Fprintln(stdout, text)
	}

	runOne("table2", "Table II — dataset statistics", func() (string, error) {
		_, text, err := s.TableII()
		return text, err
	})
	runOne("figure1", "Figure 1 — avg popularity of rated items vs activity", func() (string, error) {
		var sb strings.Builder
		for _, name := range synth.PresetNames() {
			_, text, err := s.Figure1(name, 10)
			if err != nil {
				return "", err
			}
			sb.WriteString(text)
			sb.WriteString("\n")
		}
		return sb.String(), nil
	})
	runOne("figure2", "Figure 2 — long-tail preference distributions", func() (string, error) {
		var sb strings.Builder
		for _, name := range synth.PresetNames() {
			_, text, err := s.Figure2(name, 20)
			if err != nil {
				return "", err
			}
			sb.WriteString(text)
			sb.WriteString("\n")
		}
		return sb.String(), nil
	})
	runOne("figure3", "Figure 3 — sample size sweep (ML-1M)", func() (string, error) {
		_, text, err := s.SampleSizeSweep("ML-1M", nil, nil)
		return text, err
	})
	runOne("figure4", "Figure 4 — sample size sweep (MT-200K)", func() (string, error) {
		_, text, err := s.SampleSizeSweep("MT-200K", nil, nil)
		return text, err
	})
	runOne("figure5", "Figure 5 — preference models × accuracy recommenders (ML-1M)", func() (string, error) {
		_, text, err := s.PreferenceModelSweep("ML-1M", nil, nil, nil)
		return text, err
	})
	runOne("table4", "Table IV — re-ranking RSVD across datasets", func() (string, error) {
		_, text, err := s.TableIV(nil)
		return text, err
	})
	runOne("figure6", "Figure 6 — accuracy vs coverage vs novelty", func() (string, error) {
		_, text, err := s.Figure6(nil)
		return text, err
	})
	runOne("figure7", "Figure 7 — ranking protocol comparison (ML-100K)", func() (string, error) {
		_, text, err := s.ProtocolComparison("ML-100K")
		return text, err
	})
	runOne("figure8", "Figure 8 — ranking protocol comparison (ML-1M)", func() (string, error) {
		_, text, err := s.ProtocolComparison("ML-1M")
		return text, err
	})
	runOne("table5", "Table V — RSVD configuration and error", func() (string, error) {
		_, text, err := s.TableV(nil)
		return text, err
	})
	return firstErr
}

// runCompare evaluates every named base/reranker combination on one dataset
// and prints a Table IV-style summary sorted by the average-rank score.
func runCompare(stdout, stderr io.Writer, spec, preset string, scale float64, n, sample, workers int, seed int64) error {
	data, err := ganc.GeneratePreset(preset, scale)
	if err != nil {
		return err
	}
	split := data.SplitByUser(0.8, rand.New(rand.NewSource(seed)))
	fmt.Fprintf(stdout, "dataset %s: %d users, %d items, %d train / %d test ratings\n",
		data.Name(), data.NumUsers(), data.NumItems(), split.Train.NumRatings(), split.Test.NumRatings())

	ctx := context.Background()
	ev := ganc.NewEvaluator(split, 0)
	bases := map[string]ganc.Scorer{} // train each named base once
	var reports []ganc.Report
	for _, combo := range strings.Split(spec, ",") {
		combo = strings.TrimSpace(combo)
		if combo == "" {
			continue
		}
		rerankName, baseName := "", combo
		if at := strings.IndexByte(combo, '@'); at >= 0 {
			rerankName, baseName = combo[:at], combo[at+1:]
		}
		base, ok := bases[baseName]
		if !ok {
			fmt.Fprintf(stderr, "training base %s ...\n", baseName)
			if base, err = ganc.NewBaseScorer(baseName, split.Train, seed); err != nil {
				return err
			}
			bases[baseName] = base
		}
		engine := ganc.NewBaseEngine(base, split.Train, n)
		switch rerankName {
		case "":
		case "GANC":
			// Assemble GANC directly so -sample and -workers reach the OSLG
			// optimizer; the registry entry always runs fully sequential.
			var p *ganc.Pipeline
			if p, err = ganc.NewPipeline(split.Train,
				ganc.WithBase(base),
				ganc.WithTopN(n),
				ganc.WithSampleSize(sample),
				ganc.WithWorkers(workers),
				ganc.WithSeed(seed)); err != nil {
				return err
			}
			engine = p
		default:
			if engine, err = ganc.NewReranker(rerankName, split.Train, base, n, seed); err != nil {
				return err
			}
		}
		fmt.Fprintf(stderr, "running %s ...\n", engine.Name())
		recs, err := engine.RecommendAll(ctx)
		if err != nil {
			return err
		}
		reports = append(reports, ev.Evaluate(engine.Name(), recs, n))
	}
	if len(reports) == 0 {
		return fmt.Errorf("-compare selected no combos")
	}

	ranks := ganc.RankReports(reports)
	sort.Slice(reports, func(a, b int) bool {
		return ranks[reports[a].Algorithm] < ranks[reports[b].Algorithm]
	})
	fmt.Fprintf(stdout, "\n%-34s %8s %8s %8s %8s %8s %6s\n", "algorithm", "F", "S", "L", "C", "G", "score")
	for _, rep := range reports {
		fmt.Fprintf(stdout, "%-34s %8.4f %8.4f %8.4f %8.4f %8.4f %6.1f\n",
			rep.Algorithm, rep.FMeasure, rep.StratRecall, rep.LTAccuracy, rep.Coverage, rep.Gini, ranks[rep.Algorithm])
	}
	return nil
}
