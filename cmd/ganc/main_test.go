package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is a train run small enough for a unit test: a 10 % ML-100K stand-in
// under the Pop base, which trains by counting.
const tiny = "-preset ML-100K -scale 0.1 -arec Pop "

// TestRejectedFlagCombinations pins every combination run refuses, by what
// the error names.
func TestRejectedFlagCombinations(t *testing.T) {
	tmp := t.TempDir()
	snap := filepath.Join(tmp, "model.snap")
	if err := run(strings.Fields(tiny+"-save "+snap), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	notASnapshot := filepath.Join(tmp, "ratings.csv")
	if err := os.WriteFile(notASnapshot, []byte("u1,i1,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for args, want := range map[string]string{
		"-load " + snap + " -ratings " + notASnapshot:                 "-load and -ratings are mutually exclusive",
		"-load " + snap + " -evaluate":                                "-load cannot be combined with -evaluate",
		"-load " + snap + " -save " + filepath.Join(tmp, "2.snap"):    "-load and -save are mutually exclusive",
		"-load " + notASnapshot:                                       "is not a GANC snapshot",
		tiny + "-crec Nope":                                           `ganc: unknown coverage recommender "Nope" (known: [Dyn Stat Rand])`,
		tiny + "-arec Nope":                                           "Nope",
		"-ratings " + filepath.Join(tmp, "missing.csv"):               "does not exist",
		tiny + "-rerank PRA-10 -save " + filepath.Join(tmp, "r.snap"): "-save supports GANC pipelines only",
		// The serve mode is gone (gancd listens); its flags are not accepted.
		"-load " + snap + " -serve :0": "flag provided but not defined: -serve",
	} {
		var stdout bytes.Buffer
		err := run(strings.Fields(args), &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ganc %s: error %v, want one naming %q", args, err, want)
		}
		if stdout.Len() > 0 {
			t.Errorf("ganc %s: refused, yet printed %q", args, stdout.String())
		}
	}
}

// TestSaveLoadRoundTrip trains and saves, then loads: the snapshot holds the
// pre-sweep state, so both runs print the same lists. -evaluate returns like
// every other path, after -save has written the snapshot.
func TestSaveLoadRoundTrip(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "model.snap")
	var trained, loaded, report bytes.Buffer
	if err := run(strings.Fields(tiny+"-show 5 -save "+snap), &trained, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.Fields("-show 5 -load "+snap), &loaded, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(trained.String(), "\n"); got != 5 || !strings.HasPrefix(trained.String(), "user u0000000: i") {
		t.Fatalf("the train run printed %d lines, want 5 users' lists:\n%s", got, trained.String())
	}
	if trained.String() != loaded.String() {
		t.Fatalf("lists differ across -save / -load:\ntrained:\n%sloaded:\n%s", trained.String(), loaded.String())
	}

	evalSnap := filepath.Join(t.TempDir(), "eval.snap")
	if err := run(strings.Fields(tiny+"-evaluate -save "+evalSnap), &report, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "GANC(Pop, θ^G, Dyn)") || !strings.Contains(report.String(), "Coverage@5") {
		t.Fatalf("-evaluate printed no metrics report:\n%s", report.String())
	}
	want, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(evalSnap); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("-evaluate -save wrote a different snapshot than -save alone (%v)", err)
	}
}
