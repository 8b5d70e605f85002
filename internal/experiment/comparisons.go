package experiment

import (
	"fmt"

	"ganc"
	"ganc/internal/eval"
	"ganc/internal/longtail"
	"ganc/internal/recommender"
	"ganc/internal/synth"
	"ganc/internal/types"
)

// --- Table IV --------------------------------------------------------------------

// TableIVResult holds the re-ranking comparison for one dataset: the full
// metric reports and the average-rank "Score" column.
type TableIVResult struct {
	Dataset string
	Reports []eval.Report
	// AvgRank maps each algorithm to its average rank across the five
	// metrics (lower is better), the paper's Score column.
	AvgRank map[string]float64
}

// TableIV reproduces the paper's Table IV on the given datasets: RSVD and
// every re-ranking method applied on top of it (5D, 5D(A,RR), RBT(Pop),
// RBT(Avg), PRA(10), PRA(20)), plus GANC(RSVD, θ^T, Dyn) and
// GANC(RSVD, θ^G, Dyn), all at the suite's N.
func (s *Suite) TableIV(datasets []string) ([]TableIVResult, string, error) {
	if len(datasets) == 0 {
		datasets = synth.PresetNames()
	}
	var results []TableIVResult
	text := ""
	for _, name := range datasets {
		res, block, err := s.tableIVForDataset(name)
		if err != nil {
			return nil, "", err
		}
		results = append(results, *res)
		text += block + "\n"
	}
	return results, text, nil
}

func (s *Suite) tableIVForDataset(datasetName string) (*TableIVResult, string, error) {
	ev, err := s.Evaluator(datasetName)
	if err != nil {
		return nil, "", err
	}
	n := s.N
	var reports []eval.Report

	// Base model: the plain RSVD ranking.
	baseRecs, err := s.RunBaseline(datasetName, BaselineRSVD, n)
	if err != nil {
		return nil, "", err
	}
	reports = append(reports, ev.Evaluate("RSVD", baseRecs, n))

	// Re-ranking baselines on top of RSVD.
	for _, variant := range []string{"5D", "5D-AF", "RBT-Pop", "RBT-Avg", "PRA-10", "PRA-20"} {
		recs, label, err := s.RunReranker(datasetName, ARecRSVD, variant, n)
		if err != nil {
			return nil, "", err
		}
		reports = append(reports, ev.Evaluate(label, recs, n))
	}

	// GANC variants with the same base model (RSVD) as the accuracy
	// recommender.
	for _, theta := range []longtail.Model{longtail.ModelTFIDF, longtail.ModelGeneralized} {
		recs, label, err := s.RunGANC(datasetName, GANCSpec{ARec: ARecRSVD, Theta: theta, CRec: ganc.CoverageDyn(), N: n})
		if err != nil {
			return nil, "", err
		}
		reports = append(reports, ev.Evaluate(label, recs, n))
	}

	avgRank := eval.RankReports(reports)
	var rows [][]string
	for _, rep := range reports {
		rows = append(rows, []string{
			rep.Algorithm,
			fmt.Sprintf("%.4f", rep.FMeasure),
			fmt.Sprintf("%.4f", rep.StratRecall),
			fmt.Sprintf("%.4f", rep.LTAccuracy),
			fmt.Sprintf("%.4f", rep.Coverage),
			fmt.Sprintf("%.4f", rep.Gini),
			fmt.Sprintf("%.1f", avgRank[rep.Algorithm]),
		})
	}
	text := fmt.Sprintf("Table IV (%s): top-%d re-ranking of RSVD\n", datasetName, n) +
		formatTable([]string{"Algorithm", "F@5", "S@5", "L@5", "C@5", "G@5", "Score"}, rows)
	return &TableIVResult{Dataset: datasetName, Reports: reports, AvgRank: avgRank}, text, nil
}

// --- Figure 6 --------------------------------------------------------------------

// Figure6Point is one algorithm's position in the accuracy/coverage/novelty
// trade-off scatter of Figure 6.
type Figure6Point struct {
	Dataset    string
	Algorithm  string
	FMeasure   float64
	Coverage   float64
	LTAccuracy float64
}

// Figure6 reproduces the paper's Figure 6 comparison of standalone top-N
// recommenders and GANC variants. Following the paper, the accuracy
// recommender plugged into GANC and PRA is Pop on MT-200K and PSVD100
// everywhere else.
func (s *Suite) Figure6(datasets []string) ([]Figure6Point, string, error) {
	if len(datasets) == 0 {
		datasets = synth.PresetNames()
	}
	n := s.N
	var points []Figure6Point
	var rows [][]string
	for _, name := range datasets {
		ev, err := s.Evaluator(name)
		if err != nil {
			return nil, "", err
		}
		arec := ARecPSVD100
		if name == "MT-200K" {
			arec = ARecPop
		}

		add := func(label string, recs types.Recommendations) {
			rep := ev.Evaluate(label, recs, n)
			points = append(points, Figure6Point{
				Dataset: name, Algorithm: label,
				FMeasure: rep.FMeasure, Coverage: rep.Coverage, LTAccuracy: rep.LTAccuracy,
			})
			rows = append(rows, []string{
				name, label,
				fmt.Sprintf("%.4f", rep.FMeasure),
				fmt.Sprintf("%.4f", rep.Coverage),
				fmt.Sprintf("%.4f", rep.LTAccuracy),
			})
		}

		// Standalone baselines.
		for _, algo := range []BaselineName{BaselineRand, BaselinePop, BaselineRSVD, BaselineCofiR, BaselinePSVD10, BaselinePSVD100} {
			recs, err := s.RunBaseline(name, algo, n)
			if err != nil {
				return nil, "", err
			}
			add(string(algo), recs)
		}

		// PRA with the dataset-appropriate accuracy recommender.
		praRecs, praLabel, err := s.RunReranker(name, arec, "PRA-10", n)
		if err != nil {
			return nil, "", err
		}
		add(praLabel, praRecs)

		// GANC variants with the three coverage recommenders.
		for _, crec := range []ganc.CoverageSpec{ganc.CoverageDyn(), ganc.CoverageStat(), ganc.CoverageRand()} {
			recs, label, err := s.RunGANC(name, GANCSpec{ARec: arec, Theta: longtail.ModelGeneralized, CRec: crec, N: n})
			if err != nil {
				return nil, "", err
			}
			add(label, recs)
		}
	}
	text := fmt.Sprintf("Figure 6: accuracy vs coverage vs novelty at N=%d\n", n) +
		formatTable([]string{"Dataset", "Algorithm", "F-measure", "Coverage", "LTAccuracy"}, rows)
	return points, text, nil
}

// --- Figures 7 and 8 ---------------------------------------------------------------

// ProtocolPoint is one algorithm's accuracy/coverage/novelty under one test
// ranking protocol.
type ProtocolPoint struct {
	Algorithm  string
	Protocol   eval.Protocol
	Precision  float64
	FMeasure   float64
	Coverage   float64
	LTAccuracy float64
}

// ProtocolComparison reproduces the paper's Appendix C study (Figures 7 and
// 8): the same set of accuracy-focused recommenders evaluated under the
// all-unrated-items and rated-test-items protocols.
func (s *Suite) ProtocolComparison(datasetName string) ([]ProtocolPoint, string, error) {
	sp, err := s.Split(datasetName)
	if err != nil {
		return nil, "", err
	}
	ev, err := s.Evaluator(datasetName)
	if err != nil {
		return nil, "", err
	}
	n := s.N

	type namedScorer struct {
		label  string
		scorer recommender.Scorer
	}
	var scorers []namedScorer
	scorers = append(scorers, namedScorer{"Rand", recommender.NewRand(s.Seed)})
	scorers = append(scorers, namedScorer{"Pop", recommender.NewPop(sp.Train)})
	if m, err := s.RSVD(datasetName); err == nil {
		scorers = append(scorers, namedScorer{"RSVD", m})
	}
	for _, k := range []int{10, 100} {
		if m, err := s.PSVD(datasetName, k); err == nil {
			scorers = append(scorers, namedScorer{fmt.Sprintf("PSVD%d", k), m})
		}
	}
	if m, err := s.CofiR(datasetName, 50); err == nil {
		scorers = append(scorers, namedScorer{"CofiR100", m})
	}

	var points []ProtocolPoint
	var rows [][]string
	for _, proto := range []eval.Protocol{eval.ProtocolAllUnrated, eval.ProtocolRatedTestItems} {
		for _, ns := range scorers {
			recs := eval.RecommendWithProtocol(ns.scorer, sp, n, proto)
			rep := ev.Evaluate(ns.label, recs, n)
			points = append(points, ProtocolPoint{
				Algorithm: ns.label, Protocol: proto,
				Precision: rep.Precision, FMeasure: rep.FMeasure,
				Coverage: rep.Coverage, LTAccuracy: rep.LTAccuracy,
			})
			rows = append(rows, []string{
				proto.String(), ns.label,
				fmt.Sprintf("%.4f", rep.Precision), fmt.Sprintf("%.4f", rep.FMeasure),
				fmt.Sprintf("%.4f", rep.Coverage), fmt.Sprintf("%.4f", rep.LTAccuracy),
			})
		}
	}
	text := fmt.Sprintf("Figures 7/8 (%s): effect of the test ranking protocol at N=%d\n", datasetName, n) +
		formatTable([]string{"Protocol", "Algorithm", "Precision", "F-measure", "Coverage", "LTAccuracy"}, rows)
	return points, text, nil
}
