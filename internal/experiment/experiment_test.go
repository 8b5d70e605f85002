package experiment

import (
	"fmt"
	"strings"
	"testing"

	"ganc"
	"ganc/internal/longtail"
	"ganc/internal/synth"
)

// tinySuite is a very small suite shared across the experiment tests; the
// goal of these tests is to exercise every runner end-to-end, not to obtain
// publication-quality numbers.
func tinySuite() *Suite {
	return NewSuite(0.08, 1, 5, 30)
}

func TestNewSuiteDefaults(t *testing.T) {
	s := NewSuite(0, 0, 0, 0)
	if s.Scale <= 0 || s.Seed == 0 || s.N <= 0 || s.SampleSize <= 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
}

func TestDatasetNamesMatchTableII(t *testing.T) {
	names := synth.PresetNames()
	want := []string{"ML-100K", "ML-1M", "ML-10M", "MT-200K", "Netflix"}
	if len(names) != len(want) {
		t.Fatalf("got %v", names)
	}
	for k := range want {
		if names[k] != want[k] {
			t.Fatalf("got %v", names)
		}
	}
}

func TestSplitCachingAndUnknownDataset(t *testing.T) {
	s := tinySuite()
	a, err := s.Split("ML-100K")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Split("ML-100K")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("split not cached")
	}
	if _, err := s.Split("nope"); err == nil {
		t.Fatal("unknown dataset did not error")
	}
}

func TestModelCaching(t *testing.T) {
	s := tinySuite()
	a, err := s.RSVD("ML-100K")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.RSVD("ML-100K")
	if a != b {
		t.Fatal("RSVD not cached")
	}
	p1, err := s.PSVD("ML-100K", 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s.PSVD("ML-100K", 10)
	if p1 != p2 {
		t.Fatal("PSVD not cached")
	}
	p3, err := s.PSVD("ML-100K", 20)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p3 {
		t.Fatal("different ranks must not share a cache entry")
	}
}

func TestTableIIProducesAllDatasets(t *testing.T) {
	s := tinySuite()
	rows, text, err := s.TableII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("TableII rows = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.NumRatings <= 0 || r.NumUsers <= 0 || r.NumItems <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.LongTailPct <= 0 || r.LongTailPct > 100 {
			t.Fatalf("long-tail pct out of range: %+v", r)
		}
	}
	if !strings.Contains(text, "Table II") || !strings.Contains(text, "ML-1M") {
		t.Fatal("text output incomplete")
	}
}

func TestFigure1TrendMatchesPaper(t *testing.T) {
	// The paper's Figure 1 observation: average popularity of rated items
	// decreases as user activity increases. Check that the first occupied
	// bin's mean popularity exceeds the last occupied bin's.
	s := tinySuite()
	points, text, err := s.Figure1("ML-1M", 10)
	if err != nil {
		t.Fatal(err)
	}
	var first, last *Figure1Point
	for k := range points {
		if points[k].UsersInBucket > 0 {
			if first == nil {
				first = &points[k]
			}
			last = &points[k]
		}
	}
	if first == nil || last == nil || first == last {
		t.Skip("not enough occupied activity bins at this scale")
	}
	if first.MeanAvgPop <= last.MeanAvgPop {
		t.Fatalf("expected decreasing trend: first bin %.1f, last bin %.1f", first.MeanAvgPop, last.MeanAvgPop)
	}
	if !strings.Contains(text, "Figure 1") {
		t.Fatal("text output missing header")
	}
}

func TestFigure2HistogramsCoverAllModels(t *testing.T) {
	s := tinySuite()
	res, text, err := s.Figure2("ML-100K", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []longtail.Model{longtail.ModelActivity, longtail.ModelNormalizedLongTail, longtail.ModelTFIDF, longtail.ModelGeneralized} {
		h, ok := res.Histograms[m]
		if !ok {
			t.Fatalf("missing histogram for %s", m)
		}
		total := 0
		for _, c := range h {
			total += c
		}
		if total == 0 {
			t.Fatalf("histogram for %s is empty", m)
		}
	}
	// Paper's qualitative claim: θ^G has a larger mean than θ^N.
	if res.Means[longtail.ModelGeneralized] <= res.Means[longtail.ModelNormalizedLongTail] {
		t.Fatalf("θ^G mean %.3f should exceed θ^N mean %.3f",
			res.Means[longtail.ModelGeneralized], res.Means[longtail.ModelNormalizedLongTail])
	}
	if !strings.Contains(text, "Figure 2") {
		t.Fatal("text output missing header")
	}
}

func TestSampleSizeSweepCoverageIncreasesWithS(t *testing.T) {
	s := tinySuite()
	points, text, err := s.SampleSizeSweep("ML-100K", []AccuracyRecName{ARecPop}, []int{10, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	small, large := points[0], points[1]
	if small.SampleSize > large.SampleSize {
		small, large = large, small
	}
	if large.Coverage < small.Coverage-0.02 {
		t.Fatalf("coverage should not drop materially as S grows: S=%d → %.3f, S=%d → %.3f",
			small.SampleSize, small.Coverage, large.SampleSize, large.Coverage)
	}
	if !strings.Contains(text, "Figures 3/4") {
		t.Fatal("text output missing header")
	}
}

func TestPreferenceModelSweepProducesAllCombinations(t *testing.T) {
	s := tinySuite()
	arecs := []AccuracyRecName{ARecPop}
	thetas := []longtail.Model{longtail.ModelConstant, longtail.ModelGeneralized}
	ns := []int{5}
	points, text, err := s.PreferenceModelSweep("ML-100K", arecs, thetas, ns)
	if err != nil {
		t.Fatal(err)
	}
	// One ARec-only row plus one row per theta.
	if len(points) != len(arecs)*len(ns)*(1+len(thetas)) {
		t.Fatalf("got %d points, want %d", len(points), len(arecs)*len(ns)*(1+len(thetas)))
	}
	// The plain accuracy recommender should have the best (or tied) F-measure
	// and the GANC variants should improve coverage, as in Figure 5.
	var baseF, baseCov float64
	for _, p := range points {
		if p.Theta == "ARec-only" {
			baseF, baseCov = p.FMeasure, p.Coverage
		}
	}
	for _, p := range points {
		if p.Theta == longtail.ModelGeneralized {
			if p.FMeasure > baseF+1e-9 {
				t.Fatalf("GANC F-measure %.4f should not exceed the pure accuracy recommender %.4f", p.FMeasure, baseF)
			}
			if p.Coverage < baseCov-1e-9 {
				t.Fatalf("GANC coverage %.4f should not fall below the accuracy recommender %.4f", p.Coverage, baseCov)
			}
		}
	}
	if !strings.Contains(text, "Figure 5") {
		t.Fatal("text output missing header")
	}
}

func TestTableIVRanksGANCWell(t *testing.T) {
	s := tinySuite()
	results, text, err := s.TableIV([]string{"ML-100K"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	res := results[0]
	if len(res.Reports) != 9 {
		t.Fatalf("Table IV should have 9 rows (RSVD + 6 re-rankers + 2 GANC), got %d", len(res.Reports))
	}
	// GANC's coverage must beat plain RSVD's, the paper's headline effect.
	var rsvdCov, gancCov float64
	for _, rep := range res.Reports {
		if rep.Algorithm == "RSVD" {
			rsvdCov = rep.Coverage
		}
		if strings.Contains(rep.Algorithm, "GANC(RSVD, θ^G, Dyn)") {
			gancCov = rep.Coverage
		}
	}
	if gancCov <= rsvdCov {
		t.Fatalf("GANC coverage %.4f should exceed RSVD coverage %.4f", gancCov, rsvdCov)
	}
	if len(res.AvgRank) != len(res.Reports) {
		t.Fatal("average rank missing entries")
	}
	if !strings.Contains(text, "Table IV") {
		t.Fatal("text output missing header")
	}
}

func TestFigure6IncludesAllAlgorithms(t *testing.T) {
	s := tinySuite()
	points, text, err := s.Figure6([]string{"MT-200K"})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range points {
		names[p.Algorithm] = true
	}
	for _, want := range []string{"Rand", "Pop", "RSVD", "PSVD10", "PSVD100", "CofiR100"} {
		if !names[want] {
			t.Fatalf("missing algorithm %s in Figure 6 output (have %v)", want, names)
		}
	}
	foundGANC := false
	for n := range names {
		if strings.HasPrefix(n, "GANC(") {
			foundGANC = true
		}
	}
	if !foundGANC {
		t.Fatal("missing GANC variants in Figure 6 output")
	}
	// Rand anchors the coverage end: no algorithm should exceed its coverage.
	var randCov float64
	for _, p := range points {
		if p.Algorithm == "Rand" {
			randCov = p.Coverage
		}
	}
	for _, p := range points {
		if p.Coverage > randCov+0.05 {
			t.Fatalf("%s coverage %.3f implausibly exceeds Rand %.3f", p.Algorithm, p.Coverage, randCov)
		}
	}
	if !strings.Contains(text, "Figure 6") {
		t.Fatal("text output missing header")
	}
}

func TestProtocolComparisonShowsRatedTestItemsBias(t *testing.T) {
	s := tinySuite()
	points, text, err := s.ProtocolComparison("ML-100K")
	if err != nil {
		t.Fatal(err)
	}
	// For Pop (and most models) precision under the rated-test-items protocol
	// must be at least as high as under all-unrated — the Appendix C bias.
	var popAll, popRated float64
	for _, p := range points {
		if p.Algorithm == "Pop" {
			if p.Protocol.String() == "all-unrated-items" {
				popAll = p.Precision
			} else {
				popRated = p.Precision
			}
		}
	}
	if popRated < popAll {
		t.Fatalf("rated-test-items precision %.4f below all-unrated %.4f for Pop", popRated, popAll)
	}
	if !strings.Contains(text, "Figures 7/8") {
		t.Fatal("text output missing header")
	}
}

func TestTableVReportsErrorMetrics(t *testing.T) {
	s := tinySuite()
	rows, text, err := s.TableV([]string{"ML-100K", "MT-200K"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.RMSE <= 0 || r.RMSE > 3 {
			t.Fatalf("implausible RMSE %v for %s", r.RMSE, r.Dataset)
		}
		if r.MAE <= 0 || r.MAE > r.RMSE+1e-9 {
			t.Fatalf("MAE %v inconsistent with RMSE %v", r.MAE, r.RMSE)
		}
	}
	if !strings.Contains(text, "Table V") {
		t.Fatal("text output missing header")
	}
}

func TestRunBaselineUnknownAndRerankerUnknown(t *testing.T) {
	s := tinySuite()
	if _, err := s.RunBaseline("ML-100K", BaselineName("bogus"), 5); err == nil {
		t.Fatal("unknown baseline did not error")
	}
	// An unknown re-ranker answers the registry's error, which lists the names.
	_, _, err := s.RunReranker("ML-100K", ARecRSVD, "5D-A-RR", 5)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(ganc.RerankerNames())) {
		t.Fatalf("unknown re-ranker: err %v, want the registry's error listing %v", err, ganc.RerankerNames())
	}
	if _, _, err := s.RunGANC("ML-100K", GANCSpec{ARec: "bogus", Theta: longtail.ModelTFIDF, CRec: ganc.CoverageDyn()}); err == nil {
		t.Fatal("unknown accuracy recommender did not error")
	}
	if _, _, err := s.RunGANC("ML-100K", GANCSpec{ARec: ARecPop, Theta: longtail.ModelTFIDF}); err == nil {
		t.Fatal("a GANC spec without a coverage recommender did not error")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := formatTable([]string{"a", "bb"}, [][]string{{"xxx", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if !strings.HasPrefix(lines[2], "xxx") {
		t.Fatalf("row line malformed: %q", lines[2])
	}
}
