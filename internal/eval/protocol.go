package eval

import (
	"ganc/internal/dataset"
	"ganc/internal/recommender"
	"ganc/internal/types"
)

// Protocol selects which candidate items are ranked for each user when
// building a top-N set for evaluation, following the terminology of Steck
// (2013) that the paper's Appendix C adopts.
type Protocol int

const (
	// ProtocolAllUnrated ranks every item not in the user's train set (the
	// paper's main protocol: closest to real deployment accuracy).
	ProtocolAllUnrated Protocol = iota
	// ProtocolRatedTestItems ranks only the items the user rated in the test
	// set. Accuracy looks much higher under this protocol; the paper's
	// Appendix C quantifies that bias.
	ProtocolRatedTestItems
)

// String names the protocol for experiment output.
func (p Protocol) String() string {
	switch p {
	case ProtocolAllUnrated:
		return "all-unrated-items"
	case ProtocolRatedTestItems:
		return "rated-test-items"
	default:
		return "unknown-protocol"
	}
}

// RecommendWithProtocol produces the top-N collection for every user under
// the chosen protocol using an arbitrary scorer. The two protocols differ only
// in the candidate slice handed to the one ranking path (ScorerTopN: one bulk
// score call, one SelectTop), so every candidate is scored exactly once.
//
// Under the all-unrated protocol the candidate pool is the full catalog minus
// the user's train items. Under the rated-test-items protocol the pool is the
// user's test items only (users without test ratings receive no list and are
// skipped, as in the paper's evaluation).
func RecommendWithProtocol(scorer recommender.Scorer, split *dataset.Split, n int, protocol Protocol) types.Recommendations {
	top := &recommender.ScorerTopN{Scorer: scorer}
	if protocol != ProtocolRatedTestItems {
		return recommender.RecommendAll(top, split.Train, n)
	}
	recs := make(types.Recommendations, split.Train.NumUsers())
	for u := 0; u < split.Train.NumUsers(); u++ {
		uid := types.UserID(u)
		if testItems := split.Test.UserItems(uid); len(testItems) > 0 {
			recs[uid] = top.Recommend(uid, n, testItems)
		}
	}
	return recs
}
