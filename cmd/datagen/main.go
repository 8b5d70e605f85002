// Command datagen generates a synthetic rating dataset calibrated to one of
// the paper's evaluation datasets and writes it as CSV (user,item,rating) to
// stdout or a file. The output can be reloaded by cmd/ganc (and
// ganc.LoadRatings) through the same loader used for real MovieLens exports.
//
// Usage:
//
//	datagen -preset ML-1M -scale 0.5 -out ml1m.csv
//	datagen -preset MT-200K -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ganc/internal/dataset"
	"ganc/internal/synth"
)

func main() {
	preset := flag.String("preset", "ML-100K", "dataset preset: "+strings.Join(synth.PresetNames(), ", "))
	scale := flag.Float64("scale", 1.0, "size multiplier applied to the preset")
	seed := flag.Int64("seed", 0, "override the preset's random seed (0 keeps the default)")
	out := flag.String("out", "", "output CSV path (default: stdout)")
	statsOnly := flag.Bool("stats", false, "print Table II-style statistics instead of the ratings")
	flag.Parse()

	cfg, _, err := synth.Preset(*preset, synth.Scale(*scale))
	if err != nil {
		fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	d, err := synth.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	if *statsOnly {
		s := d.ComputeStats()
		fmt.Printf("dataset   : %s\n", s.Name)
		fmt.Printf("|D|       : %d ratings\n", s.NumRatings)
		fmt.Printf("|U|       : %d users\n", s.NumUsers)
		fmt.Printf("|I|       : %d items\n", s.NumItems)
		fmt.Printf("density   : %.3f%%\n", s.DensityPct)
		fmt.Printf("long-tail : %.2f%% of items\n", s.LongTailPct)
		fmt.Printf("mean r    : %.3f\n", s.MeanRating)
		fmt.Printf("user deg  : min %d, max %d\n", s.MinUserDeg, s.MaxUserDeg)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := dataset.WriteRatings(w, d); err != nil {
		fatal(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d ratings to %s\n", d.NumRatings(), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
