package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runChild runs one workload in its own OS process — this binary again — so
// each gets a fresh heap and its own VmHWM, and parses its result line.
func runChild(workload string, seed int64, seconds int, traced, smoke bool) (resultLine, error) {
	var line resultLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s: %w", workload, runErr)
		}
		return line, fmt.Errorf("%s: unreadable result line: %w", workload, err)
	}
	if runErr != nil || !line.Correct {
		return line, fmt.Errorf("%s (trace %s): output checks failed or requests errored (%d of %d failed)", workload, trace, line.Failed, line.Attempted)
	}
	return line, nil
}

func printMetrics(workload string, specs []metricSpec, line resultLine) {
	for _, spec := range specs {
		fmt.Printf("%-14s %-32s %16.6f %s\n", workload, spec.name, line.Metrics[spec.name].Value, spec.unit)
	}
}

// runSuite is `go run ./benchmark -seed N`: every workload, untraced for the
// end-to-end metrics and then traced for the per-layer ones.
func runSuite(seed int64, seconds int, smoke bool) error {
	var failures []string
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			line, err := runChild(w, seed, seconds, traced, smoke)
			if err != nil {
				failures = append(failures, err.Error())
				continue
			}
			if !traced {
				fmt.Printf("%-14s %-32s %16d of %d failed\n", w, "requests", line.Failed, line.Attempted)
			}
			printMetrics(w, specsFor(traced), line)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// repeatRuns is how many runs make one of the repeat check's two sets.
const repeatRuns = 3

// runRepeatCheck runs the untraced suite as two sets of repeatRuns runs each,
// alternating between the sets, on the same code and seed, and compares the
// sets' medians of every end-to-end metric against the metric's own
// regression bound: a benchmark that cannot agree with itself cannot gate
// anything. (The driver compares medians of ten; single runs on this box
// meet a disk or hypervisor stall often enough to make a one-against-one
// comparison a coin toss.)
func runRepeatCheck(seed int64, seconds int, smoke bool) error {
	var disagree []string
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s\n", "workload", "metric", "set 1 median", "set 2 median", "spread", "bound")
	for _, w := range workloadNames {
		var sets [2]map[string][]float64
		for k := range sets {
			sets[k] = make(map[string][]float64)
		}
		for run := 0; run < 2*repeatRuns; run++ {
			line, err := runChild(w, seed, seconds, false, smoke)
			if err != nil {
				return err
			}
			for name, v := range line.Metrics {
				sets[run%2][name] = append(sets[run%2][name], v.Value)
			}
		}
		for _, spec := range endToEnd {
			a, b := medianFloat(sets[0][spec.name]), medianFloat(sets[1][spec.name])
			spread := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if spread > spec.bound {
				verdict = "  DISAGREE"
				disagree = append(disagree, w+"/"+spec.name)
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w, spec.name, a, b, 100*spread, 100*spec.bound, verdict)
		}
	}
	if len(disagree) > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the bound on: %s", strings.Join(disagree, ", "))
	}
	return nil
}
