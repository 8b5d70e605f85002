package ganc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"ganc/internal/simulate"
)

// sweepDigests pins the full RecommendAll collection of GANC(base, θ^G, Dyn)
// for every base × OSLG sample size the sweep treats differently, over two
// consecutive passes on one pipeline (the second starts from the Dyn state the
// first left). The values were recorded at the commit before the sweep became
// one top-N pipeline (PR 17's parent, where the in-sample Dyn phase ran CELF
// lazy greedy and Pop+Dyn had its own sweep), so a pass here is byte-identity
// with those paths. They were recorded per precision tier, when a pipeline
// option chose one; the one tier there is now must reproduce the rows of both. Regenerate with
// `go test -run TestSweepDigests -v .` and copy the logged table — only when an
// output change is intended.
var sweepDigests = map[string][2]string{
	"Pop/f64/S=0":         {"cebc9ae847b56e94", "5a22738d4942c249"},
	"Pop/f64/sampled":     {"a06480f36bf23ae8", "72b4d98df6b1e61d"},
	"Pop/f32/S=0":         {"cebc9ae847b56e94", "5a22738d4942c249"},
	"Pop/f32/sampled":     {"a06480f36bf23ae8", "72b4d98df6b1e61d"},
	"RSVD/f64/S=0":        {"07e7f0debe203238", "1c6d2d397966d04e"},
	"RSVD/f64/sampled":    {"01db1ca96299246d", "ea2e82f46bfc6577"},
	"RSVD/f32/S=0":        {"07e7f0debe203238", "1c6d2d397966d04e"},
	"RSVD/f32/sampled":    {"01db1ca96299246d", "ea2e82f46bfc6577"},
	"ItemAvg/f64/S=0":     {"75713e706e2fd93a", "165254875ed47ebb"},
	"ItemAvg/f64/sampled": {"2a461f8a3a34a60a", "a603ffb41dca1dbb"},
	"ItemAvg/f32/S=0":     {"75713e706e2fd93a", "165254875ed47ebb"},
	"ItemAvg/f32/sampled": {"2a461f8a3a34a60a", "a603ffb41dca1dbb"},
}

// collectionDigest keeps 64 bits of the SHA-256 of the collection's canonical
// form (one line per user, items in rank order), the byte form the scenario
// fingerprints compare.
func collectionDigest(train *Dataset, recs Recommendations) string {
	sum := sha256.Sum256(simulate.CanonicalRecommendations(train, recs))
	return hex.EncodeToString(sum[:8])
}

func TestSweepDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests were recorded on amd64; other architectures fuse and order float operations differently")
	}
	train := digestTrain(t)
	bases := []struct {
		name string
		opt  func() PipelineOption
	}{
		{"Pop", func() PipelineOption { return WithBaseNamed("Pop") }},
		{"RSVD", func() PipelineOption {
			m, err := TrainRSVD(train, smallRSVDConfig())
			if err != nil {
				t.Fatal(err)
			}
			return WithBase(m)
		}},
		{"ItemAvg", func() PipelineOption { return WithBaseNamed("ItemAvg") }},
	}
	ctx := context.Background()
	for _, base := range bases {
		for _, sample := range []struct {
			name string
			size int
		}{{"S=0", 0}, {"sampled", train.NumUsers() / 4}} {
			p, err := NewPipeline(train, base.opt(), WithSampleSize(sample.size), WithTopN(10), WithSeed(5))
			if err != nil {
				t.Fatal(err)
			}
			var got [2]string
			for pass := range got {
				recs, err := p.RecommendAll(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got[pass] = collectionDigest(train, recs)
			}
			for _, tier := range []string{"f64", "f32"} {
				key := fmt.Sprintf("%s/%s/%s", base.name, tier, sample.name)
				t.Logf("%q: {%q, %q},", key, got[0], got[1])
				if want := sweepDigests[key]; got != want {
					t.Errorf("%s: collection digests %v, recorded %v", key, got, want)
				}
			}
		}
	}
}
