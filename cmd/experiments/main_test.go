package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// -update regenerates the golden files from the current output:
//
//	go test ./cmd/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// runCLI executes the experiments CLI in-process, returning its stdout.
// Progress chatter goes to stderr and is deliberately not captured — only
// the report bytes must be deterministic.
func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// checkGolden compares the output against the checked-in golden file
// (regenerating it under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output diverged from %s (regenerate with -update if intended).\n--- got ---\n%s\n--- want ---\n%s",
			path, got, string(want))
	}
}

// TestCompareReportGoldenAndDeterministic pins the -compare path three ways:
// byte-identical across two runs of the same process, byte-identical across
// -workers 1 and -workers 8 (the OSLG out-of-sample pass shards across
// workers when -sample > 0), and byte-identical to the checked-in golden
// file across processes and commits.
func TestCompareReportGoldenAndDeterministic(t *testing.T) {
	args := func(workers string) []string {
		return []string{
			"-compare", "Pop,ItemAvg,GANC@Pop",
			"-preset", "ML-100K",
			"-scale", "0.06",
			"-n", "5",
			"-sample", "20",
			"-seed", "3",
			"-workers", workers,
		}
	}
	first := runCLI(t, args("1")...)
	second := runCLI(t, args("1")...)
	if first != second {
		t.Fatal("two identical runs produced different reports")
	}
	parallel := runCLI(t, args("8")...)
	if parallel != first {
		t.Fatalf("-workers 8 diverged from -workers 1.\n--- workers=8 ---\n%s\n--- workers=1 ---\n%s", parallel, first)
	}
	if !strings.Contains(first, "GANC(Pop") {
		t.Fatalf("report is missing the GANC row:\n%s", first)
	}
	checkGolden(t, "compare_ml100k.golden", first)
}

// TestSuiteReportGoldenAndDeterministic pins the paper experiments — the
// dataset statistics and every model-bearing table and figure the suite
// prints — to golden files recorded from the binary of commit 024c4dc, before
// the suite became a client of the facade: byte-identical across -workers 1
// and -workers 8 (GOMAXPROCS is raised so 8 is not clamped to 1) and to the
// checked-in bytes. figure4 and figure8 run the figure3 and figure7 code on a
// second dataset; figure1 and figure2 assemble no model.
func TestSuiteReportGoldenAndDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, id := range []string{"table2", "table4", "figure3", "figure5", "figure6", "figure7", "table5"} {
		args := []string{"-only", id, "-scale", "0.06", "-seed", "3", "-workers"}
		first := runCLI(t, append(args, "1")...)
		if parallel := runCLI(t, append(args, "8")...); parallel != first {
			t.Fatalf("%s: -workers 8 diverged from -workers 1.\n--- workers=8 ---\n%s\n--- workers=1 ---\n%s", id, parallel, first)
		}
		checkGolden(t, id+".golden", first)
	}
}

// TestCompareRejectsUnknownCombos pins the CLI's error path (no os.Exit in
// run, so failures are testable).
func TestCompareRejectsUnknownCombos(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-compare", "NoSuchModel", "-scale", "0.06"}, &out, io.Discard)
	if err == nil {
		t.Fatal("unknown base accepted")
	}
}
