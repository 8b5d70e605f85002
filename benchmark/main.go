// Command benchmark is the repository's benchmark: it generates seeded
// inputs, runs one of four workloads against the program from outside
// (sweep_batch, serve_mixed, cluster_hot, cluster_mixed), checks the
// program's outputs, and prints every metric by name with its unit.
// BENCHMARK.json at the repository root declares the same names; README.md in
// this directory says what each one means, which layer moves it, and how each
// layer number is obtained without touching the program's code.
//
// One workload, as the driver runs it (last stdout line is the JSON result):
//
//	go run ./benchmark --workload serve_mixed --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics from an untraced window; --trace 1
// turns the benchmark's own wrappers on, runs the direct-call probes, prints
// the per-layer metrics and writes benchmark/out/trace-<workload>.json.
//
// The whole suite, each workload in its own OS process (fresh heap, own
// VmHWM, own work directory), untraced then traced:
//
//	go run ./benchmark -seed 1
//
// -repeat-check runs the untraced suite as two interleaved sets of three runs
// with one seed and fails if the sets' medians of any end-to-end metric
// disagree by more than its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	sc       scale
	outDir   string
	log      io.Writer
}

// setupRepeats is how many times the run sets the system up: several when
// set-up is what is measured (the median is setup_s), once when tracing.
func (c runConfig) setupRepeats() int {
	if c.traced {
		return 1
	}
	return c.sc.setupRepeats
}

func (c runConfig) logf(format string, args ...interface{}) {
	fmt.Fprintf(c.log, "[%s] "+format+"\n", append([]interface{}{c.workload}, args...)...)
}

// runResult is what a workload hands back: every metric it measured, the
// request accounting, and the output checks that failed.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string
	spans             []span
	// eventsSent is how many ingest events the clients sent in all windows,
	// for the cursor checks.
	eventsSent int
}

func newResult() *runResult { return &runResult{metrics: make(map[string]float64)} }

func (r *runResult) problemf(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// workloads maps a name to its implementation.
var workloads = map[string]func(runConfig) (*runResult, error){
	"sweep_batch":   runSweepBatch,
	"serve_mixed":   runServeMixed,
	"cluster_hot":   runClusterHot,
	"cluster_mixed": runClusterMixed,
}

// metricValue and resultLine are the driver's output contract.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFor selects the metrics the run's mode prints. An end-to-end metric
// the workload did not produce (or produced as 0) is a harness bug, reported
// as a failed check; a per-layer metric it did not produce is a layer that
// did no work there, printed as 0.
func resultFor(res *runResult, traced bool) resultLine {
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]metricValue)}
	for _, spec := range specsFor(traced) {
		v, ok := res.metrics[spec.name]
		if !traced && (!ok || v == 0) {
			res.problemf("end-to-end metric %s was not measured", spec.name)
		}
		line.Metrics[spec.name] = metricValue{Value: v, Unit: spec.unit}
	}
	line.Correct = res.correct()
	return line
}

// stamp records where and on what a result was taken.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	WorkDirFS  string `json:"work_dir_fs"`
}

func newStamp(cfg runConfig) stamp {
	return stamp{
		Commit:     headCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.seed,
		Scale:      cfg.sc.name,
		WorkDirFS:  filesystemOf(cfg.outDir),
	}
}

// headCommit reads the checked-out commit from .git without running git; the
// driver's checkout is not a repository, and there the answer is "unknown".
func headCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(s, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		s = strings.TrimSpace(string(b))
	}
	return s
}

// runOne runs a single workload in this process and prints the result line.
func runOne(cfg runConfig, stdout io.Writer) error {
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	st := newStamp(cfg)
	cfg.logf("seed %d, %v window, trace %v, scale %s, commit %s, %s, nproc %d, GOMAXPROCS %d, work dir on %s",
		cfg.seed, cfg.window, cfg.traced, st.Scale, st.Commit, st.GoVersion, st.NProc, st.GOMAXPROCS, st.WorkDirFS)
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line := resultFor(res, cfg.traced)
	for _, p := range res.problems {
		cfg.logf("CHECK FAILED: %s", p)
	}
	if cfg.traced {
		tf := traceFile{Stamp: st, Workload: cfg.workload, Metrics: res.metrics, Self: selfTimes(res.spans), Spans: res.spans}
		if err := writeTrace(cfg.outDir, tf); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d requests failed, %d output checks failed", cfg.workload, res.failed, res.attempted, len(res.problems))
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "run this one workload in-process and print the driver's JSON result line (default: run the whole suite, one child process per workload)")
	seed := flag.Int64("seed", 1, "seed of the universe, split, request and event streams")
	seconds := flag.Int("seconds", 15, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "0: untraced window, end-to-end metrics; 1: traced window and probes, per-layer metrics")
	smoke := flag.Bool("smoke", false, "run at the harness self-test's scale (no meaningful timings)")
	repeatCheck := flag.Bool("repeat-check", false, "run the untraced suite as two interleaved sets of three runs with the same seed and fail if the sets' medians of an end-to-end metric differ by more than its bound")
	flag.Parse()

	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	var err error
	switch {
	case *workload != "":
		err = runOne(runConfig{
			workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
			traced: *trace != 0, sc: sc, outDir: filepath.Join("benchmark", "out"), log: os.Stderr,
		}, os.Stdout)
	case *repeatCheck:
		err = runRepeatCheck(*seed, *seconds, *smoke)
	default:
		err = runSuite(*seed, *seconds, *smoke)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
