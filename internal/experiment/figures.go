package experiment

import (
	"fmt"

	"ganc"
	"ganc/internal/eval"
	"ganc/internal/longtail"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// --- Table II -------------------------------------------------------------------

// TableII computes the dataset-description statistics for every preset
// (paper Table II) and renders them.
func (s *Suite) TableII() ([]TableIIRow, string, error) {
	var rows []TableIIRow
	var textRows [][]string
	for _, name := range synth.PresetNames() {
		sp, err := s.Split(name)
		if err != nil {
			return nil, "", err
		}
		stats := sp.Parent.ComputeStats()
		row := TableIIRow{
			Dataset:     name,
			NumRatings:  stats.NumRatings,
			NumUsers:    stats.NumUsers,
			NumItems:    stats.NumItems,
			DensityPct:  stats.DensityPct,
			LongTailPct: stats.LongTailPct,
			Kappa:       sp.Kappa,
			Tau:         stats.MinUserDeg,
		}
		rows = append(rows, row)
		textRows = append(textRows, []string{
			name,
			fmt.Sprintf("%d", row.NumRatings),
			fmt.Sprintf("%d", row.NumUsers),
			fmt.Sprintf("%d", row.NumItems),
			fmt.Sprintf("%.2f", row.DensityPct),
			fmt.Sprintf("%.2f", row.LongTailPct),
			fmt.Sprintf("%.1f", row.Kappa),
			fmt.Sprintf("%d", row.Tau),
		})
	}
	text := "Table II: dataset description (synthetic, calibrated)\n" +
		formatTable([]string{"Dataset", "|D|", "|U|", "|I|", "d%", "L%", "kappa", "tau"}, textRows)
	return rows, text, nil
}

// TableIIRow mirrors one row of the paper's Table II.
type TableIIRow struct {
	Dataset     string
	NumRatings  int
	NumUsers    int
	NumItems    int
	DensityPct  float64
	LongTailPct float64
	Kappa       float64
	Tau         int
}

// --- Figure 1 -------------------------------------------------------------------

// Figure1Point is one bin of the Figure 1 curve: users whose (normalized)
// profile size falls into the bin, and the mean over those users of the
// average popularity of the items they rated.
type Figure1Point struct {
	BinCenter     float64
	MeanAvgPop    float64
	UsersInBucket int
}

// Figure1 reproduces the paper's Figure 1 for one dataset: the average
// popularity of a user's rated items as a function of the user's activity.
func (s *Suite) Figure1(datasetName string, bins int) ([]Figure1Point, string, error) {
	if bins <= 0 {
		bins = 10
	}
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	train := sp.Train
	type userPoint struct {
		activity float64
		avgPop   float64
	}
	var pts []userPoint
	maxActivity := 0.0
	for u := 0; u < train.NumUsers(); u++ {
		idxs := train.UserRatings(types.UserID(u))
		if len(idxs) == 0 {
			continue
		}
		sumPop := 0.0
		for _, idx := range idxs {
			sumPop += float64(train.ItemPopularity(train.Rating(idx).Item))
		}
		act := float64(len(idxs))
		if act > maxActivity {
			maxActivity = act
		}
		pts = append(pts, userPoint{activity: act, avgPop: sumPop / act})
	}
	out := make([]Figure1Point, bins)
	counts := make([]int, bins)
	for _, p := range pts {
		b := 0
		if maxActivity > 0 {
			b = int(p.activity / maxActivity * float64(bins))
		}
		if b >= bins {
			b = bins - 1
		}
		out[b].MeanAvgPop += p.avgPop
		counts[b]++
	}
	var textRows [][]string
	for b := range out {
		out[b].BinCenter = (float64(b) + 0.5) / float64(bins)
		out[b].UsersInBucket = counts[b]
		if counts[b] > 0 {
			out[b].MeanAvgPop /= float64(counts[b])
		}
		textRows = append(textRows, []string{
			fmt.Sprintf("%.2f", out[b].BinCenter),
			fmt.Sprintf("%.1f", out[b].MeanAvgPop),
			fmt.Sprintf("%d", counts[b]),
		})
	}
	text := fmt.Sprintf("Figure 1 (%s): average popularity of rated items vs user activity\n", datasetName) +
		formatTable([]string{"activity-bin", "avg-popularity", "users"}, textRows)
	return out, text, nil
}

// --- Figure 2 -------------------------------------------------------------------

// Figure2Result holds the preference-model histograms for one dataset.
type Figure2Result struct {
	Dataset string
	Bins    int
	// Histograms maps the model name (θ^A, θ^N, θ^T, θ^G) to its bin counts.
	Histograms map[longtail.Model][]int
	Means      map[longtail.Model]float64
	StdDevs    map[longtail.Model]float64
}

// Figure2 reproduces the paper's Figure 2: histograms of the long-tail
// novelty preference models on one dataset.
func (s *Suite) Figure2(datasetName string, bins int) (*Figure2Result, string, error) {
	if bins <= 0 {
		bins = 20
	}
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	models := []longtail.Model{
		longtail.ModelActivity,
		longtail.ModelNormalizedLongTail,
		longtail.ModelTFIDF,
		longtail.ModelGeneralized,
	}
	res := &Figure2Result{
		Dataset:    datasetName,
		Bins:       bins,
		Histograms: make(map[longtail.Model][]int, len(models)),
		Means:      make(map[longtail.Model]float64, len(models)),
		StdDevs:    make(map[longtail.Model]float64, len(models)),
	}
	var textRows [][]string
	for _, m := range models {
		prefs, err := longtail.Estimate(m, sp.Train, nil, 0.5, s.Seed)
		if err != nil {
			return nil, "", err
		}
		res.Histograms[m] = prefs.Histogram(bins)
		res.Means[m] = prefs.Mean()
		res.StdDevs[m] = prefs.StdDev()
		textRows = append(textRows, []string{
			string(m),
			fmt.Sprintf("%.3f", prefs.Mean()),
			fmt.Sprintf("%.3f", prefs.StdDev()),
			fmt.Sprintf("%v", prefs.Histogram(bins)),
		})
	}
	text := fmt.Sprintf("Figure 2 (%s): long-tail novelty preference distributions\n", datasetName) +
		formatTable([]string{"model", "mean", "std", "histogram"}, textRows)
	return res, text, nil
}

// --- Figures 3 and 4 --------------------------------------------------------------

// SampleSizePoint is one point of the Figure 3/4 sweep: GANC(ARec, θ^G, Dyn)
// at a given OSLG sample size.
type SampleSizePoint struct {
	ARec       AccuracyRecName
	SampleSize int
	FMeasure   float64
	Coverage   float64
}

// SampleSizeSweep reproduces Figure 3 (ML-1M) and Figure 4 (MT-200K): the
// effect of the OSLG sample size S on F-measure@N and Coverage@N for
// GANC(ARec, θ^G, Dyn) with each accuracy recommender.
func (s *Suite) SampleSizeSweep(datasetName string, arecs []AccuracyRecName, sizes []int) ([]SampleSizePoint, string, error) {
	if len(arecs) == 0 {
		arecs = []AccuracyRecName{ARecPSVD100, ARecPSVD10, ARecPop, ARecRSVD}
	}
	if len(sizes) == 0 {
		sizes = []int{100, 300, 500, 700, 900}
	}
	ev, err := s.Evaluator(datasetName)
	if err != nil {
		return nil, "", err
	}
	var points []SampleSizePoint
	var textRows [][]string
	for _, arec := range arecs {
		for _, size := range sizes {
			recs, _, err := s.RunGANC(datasetName, GANCSpec{ARec: arec, Theta: longtail.ModelGeneralized, CRec: ganc.CoverageDyn(), N: s.N, SampleSize: size})
			if err != nil {
				return nil, "", err
			}
			rep := ev.Evaluate(fmt.Sprintf("GANC(%s,G,Dyn)@S=%d", arec, size), recs, s.N)
			points = append(points, SampleSizePoint{ARec: arec, SampleSize: size, FMeasure: rep.FMeasure, Coverage: rep.Coverage})
			textRows = append(textRows, []string{
				string(arec), fmt.Sprintf("%d", size),
				fmt.Sprintf("%.4f", rep.FMeasure), fmt.Sprintf("%.4f", rep.Coverage),
			})
		}
	}
	text := fmt.Sprintf("Figures 3/4 (%s): GANC(ARec, θ^G, Dyn) vs OSLG sample size\n", datasetName) +
		formatTable([]string{"ARec", "S", "F-measure@N", "Coverage@N"}, textRows)
	return points, text, nil
}

// --- Figure 5 ---------------------------------------------------------------------

// PreferenceSweepPoint is one point of the Figure 5 sweep.
type PreferenceSweepPoint struct {
	ARec  AccuracyRecName
	Theta longtail.Model
	N     int
	eval.Report
}

// PreferenceModelSweep reproduces Figure 5: GANC(ARec, θ, Dyn) for every
// preference model and list length, against the plain accuracy recommender.
// The returned reports include all five headline metrics.
func (s *Suite) PreferenceModelSweep(datasetName string, arecs []AccuracyRecName, thetas []longtail.Model, ns []int) ([]PreferenceSweepPoint, string, error) {
	if len(arecs) == 0 {
		arecs = []AccuracyRecName{ARecRSVD, ARecPSVD100, ARecPSVD10, ARecPop}
	}
	if len(thetas) == 0 {
		thetas = []longtail.Model{
			longtail.ModelRandom, longtail.ModelConstant,
			longtail.ModelNormalizedLongTail, longtail.ModelTFIDF, longtail.ModelGeneralized,
		}
	}
	if len(ns) == 0 {
		ns = []int{5, 10, 15, 20}
	}
	ev, err := s.Evaluator(datasetName)
	if err != nil {
		return nil, "", err
	}
	var points []PreferenceSweepPoint
	var textRows [][]string
	for _, arec := range arecs {
		for _, n := range ns {
			// The plain accuracy recommender as its own row ("ARec" line in
			// the figure): the standalone baseline of the same name.
			baseRecs, err := s.RunBaseline(datasetName, BaselineName(arec), n)
			if err != nil {
				return nil, "", err
			}
			baseRep := ev.Evaluate(string(arec), baseRecs, n)
			points = append(points, PreferenceSweepPoint{ARec: arec, Theta: "ARec-only", N: n, Report: baseRep})
			textRows = append(textRows, sweepRow(arec, "ARec-only", n, baseRep))

			for _, theta := range thetas {
				recs, name, err := s.RunGANC(datasetName, GANCSpec{ARec: arec, Theta: theta, CRec: ganc.CoverageDyn(), N: n})
				if err != nil {
					return nil, "", err
				}
				rep := ev.Evaluate(name, recs, n)
				points = append(points, PreferenceSweepPoint{ARec: arec, Theta: theta, N: n, Report: rep})
				textRows = append(textRows, sweepRow(arec, theta, n, rep))
			}
		}
	}
	text := fmt.Sprintf("Figure 5 (%s): GANC(ARec, θ, Dyn) across preference models and N\n", datasetName) +
		formatTable([]string{"ARec", "theta", "N", "F", "StratRecall", "LTAcc", "Coverage", "Gini"}, textRows)
	return points, text, nil
}

func sweepRow(arec AccuracyRecName, theta longtail.Model, n int, rep eval.Report) []string {
	return []string{
		string(arec), string(theta), fmt.Sprintf("%d", n),
		fmt.Sprintf("%.4f", rep.FMeasure), fmt.Sprintf("%.4f", rep.StratRecall),
		fmt.Sprintf("%.4f", rep.LTAccuracy), fmt.Sprintf("%.4f", rep.Coverage),
		fmt.Sprintf("%.4f", rep.Gini),
	}
}

// --- Table V ---------------------------------------------------------------------

// TableVRow is one row of the RSVD configuration table.
type TableVRow struct {
	Dataset   string
	Factors   int
	LearnRate float64
	Lambda    float64
	RMSE      float64
	MAE       float64
}

// TableV reports the RSVD hyper-parameters used per dataset and the held-out
// RMSE they achieve, mirroring the paper's Table V.
func (s *Suite) TableV(datasets []string) ([]TableVRow, string, error) {
	if len(datasets) == 0 {
		datasets = synth.PresetNames()
	}
	var rows []TableVRow
	var textRows [][]string
	for _, name := range datasets {
		sp, err := s.Split(name)
		if err != nil {
			return nil, "", err
		}
		m, err := s.RSVD(name)
		if err != nil {
			return nil, "", err
		}
		cfg := s.rsvdConfigFor(name)
		row := TableVRow{
			Dataset:   name,
			Factors:   cfg.Factors,
			LearnRate: cfg.LearningRate,
			Lambda:    cfg.Regularization,
			RMSE:      m.RMSE(sp.Test),
			MAE:       m.MAE(sp.Test),
		}
		rows = append(rows, row)
		textRows = append(textRows, []string{
			name, fmt.Sprintf("%d", row.Factors), fmt.Sprintf("%.3f", row.LearnRate),
			fmt.Sprintf("%.3f", row.Lambda), fmt.Sprintf("%.3f", row.RMSE), fmt.Sprintf("%.3f", row.MAE),
		})
	}
	text := "Table V: RSVD configuration and held-out error\n" +
		formatTable([]string{"Dataset", "g", "eta", "lambda", "RMSE", "MAE"}, textRows)
	return rows, text, nil
}
