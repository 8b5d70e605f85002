package ganc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// tierDigestPipeline assembles one small pipeline around the named baseKinds
// row on the digest fixture. The factor models are wide enough (16, 12 and 10
// factors) that the row kernel runs its unrolled blocks and its remainder
// loop; the other rows are buildPersistablePipeline's.
func tierDigestPipeline(t *testing.T, train *Dataset, kind string, extra ...PipelineOption) *Pipeline {
	t.Helper()
	var base Scorer
	var err error
	switch kind {
	case "RSVD":
		base, err = TrainRSVD(train, smallRSVDConfig())
	case "PSVD":
		base, err = TrainPSVD(train, PSVDConfig{Factors: 12, PowerIterations: 1, Seed: 7})
	case "CofiRank":
		base, err = TrainCofi(train, CofiConfig{
			Factors: 10, Regularization: 0.05, LearningRate: 0.02,
			Epochs: 2, InitStd: 0.1, Seed: 7, PairsPerUser: 5,
		})
	default:
		return buildPersistablePipeline(t, train, kind, extra...)
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]PipelineOption{WithBase(base), WithTopN(5), WithPreferences(PreferenceTFIDF), WithSeed(7)}, extra...)
	p, err := NewPipeline(train, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTierDigests is the byte bar of the one bulk-scoring tier:
// testdata/tier_digests.txt was recorded at be05226, the last commit with a
// precision option, from pipelines assembled with that option at its float32
// value — one per baseKinds row under fully sequential and sampled OSLG, plus
// Stat coverage on the RSVD row. Each line holds the pipeline's name, its
// RecommendAll digest and the digest of every user's RecommendUser list
// against the state that sweep left. A pass is byte-identity with what that
// commit served at the float32 tier, batch, sampled and online. Regenerate
// with `go test -run TestTierDigests -v .` and copy the logged rows — only
// when an output change is intended.
func TestTierDigests(t *testing.T) {
	if !digestArch() {
		t.Skip("digests are checked on amd64 and 386, the architectures CI runs them on; " + runtime.GOARCH + " may fuse and order float operations differently")
	}
	table, err := os.ReadFile(filepath.Join("testdata", "tier_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		key, _, _ := strings.Cut(line, "\t")
		recorded[key] = line
	}

	train := digestTrain(t)
	type variant struct {
		name string
		opts []PipelineOption
	}
	dyn := []variant{
		{"Dyn/S=0", nil},
		{"Dyn/sampled", []PipelineOption{WithSampleSize(train.NumUsers() / 4)}},
	}
	ctx := context.Background()
	rows := 0
	for k := range baseKinds {
		kind := baseKinds[k].name
		variants := dyn
		if kind == "RSVD" {
			variants = append(variants[:len(variants):len(variants)], variant{"Stat", []PipelineOption{WithCoverage(CoverageStat())}})
		}
		for _, v := range variants {
			p := tierDigestPipeline(t, train, kind, v.opts...)
			all, err := p.RecommendAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			online := make(Recommendations, train.NumUsers())
			for u := 0; u < train.NumUsers(); u++ {
				if online[UserID(u)], err = p.RecommendUser(ctx, UserID(u), 0); err != nil {
					t.Fatal(err)
				}
			}
			key := kind + "/" + v.name
			got := fmt.Sprintf("%s\t%s\t%s\t%s", key, p.Name(), collectionDigest(train, all), collectionDigest(train, online))
			t.Log(got)
			if got != recorded[key] {
				t.Errorf("%s:\n got      %s\n recorded %s", key, got, recorded[key])
			}
			rows++
		}
	}
	if rows != len(recorded) {
		t.Errorf("computed %d rows, testdata/tier_digests.txt holds %d", rows, len(recorded))
	}
}
