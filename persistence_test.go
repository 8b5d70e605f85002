package ganc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ganc/internal/persist"
)

// persistSplit builds the small synthetic split shared by the persistence
// round-trip tests.
func persistSplit(t *testing.T, seed int64) *Split {
	t.Helper()
	data, err := GenerateML100K(0.08)
	if err != nil {
		t.Fatal(err)
	}
	return SplitByUser(data, 0.8, rand.New(rand.NewSource(seed)))
}

// assertRecsIdentical fails unless the two collections are byte-identical:
// same users, same lists, same order.
func assertRecsIdentical(t *testing.T, label string, got, want Recommendations) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: user counts differ: %d vs %d", label, len(got), len(want))
	}
	for _, u := range want.SortedUsers() {
		gotSet, wantSet := got[u], want[u]
		if len(gotSet) != len(wantSet) {
			t.Fatalf("%s: user %d list sizes differ: %v vs %v", label, u, gotSet, wantSet)
		}
		for k := range wantSet {
			if gotSet[k] != wantSet[k] {
				t.Fatalf("%s: user %d: loaded %v != saved %v", label, u, gotSet, wantSet)
			}
		}
	}
}

// buildPersistablePipeline assembles a pipeline for the named base kind on
// cheap-to-train configurations; extra options follow the defaults.
func buildPersistablePipeline(t *testing.T, train *Dataset, base string, extra ...PipelineOption) *Pipeline {
	t.Helper()
	opts := append([]PipelineOption{
		WithTopN(5),
		WithPreferences(PreferenceTFIDF),
		WithSeed(7),
	}, extra...)
	switch base {
	case "RSVD":
		cfg := DefaultRSVDConfig()
		cfg.Factors = 6
		cfg.Epochs = 2
		cfg.Seed = 7
		m, err := TrainRSVD(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithBase(m))
	case "PSVD":
		m, err := TrainPSVD(train, PSVDConfig{Factors: 5, PowerIterations: 1, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithBase(m))
	case "ItemKNN":
		cfg := DefaultItemKNNConfig()
		cfg.Neighbors = 10
		m, err := TrainItemKNN(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithBase(m))
	case "CofiRank":
		m, err := TrainCofi(train, CofiConfig{
			Factors: 6, Regularization: 0.05, LearningRate: 0.02,
			Epochs: 2, InitStd: 0.1, Seed: 7, PairsPerUser: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithBase(m))
	default: // registry kinds trained by name (Pop, ItemAvg)
		opts = append(opts, WithBaseNamed(base))
	}
	p, err := NewPipeline(train, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSaveLoadRoundTripByteIdentical is the acceptance property: for every
// persistable base kind, a loaded engine must produce byte-identical
// RecommendAll output to the engine that saved it, and agree online as well.
func TestSaveLoadRoundTripByteIdentical(t *testing.T) {
	split := persistSplit(t, 31)
	dir := t.TempDir()
	for _, base := range []string{"Pop", "ItemAvg", "RSVD", "PSVD", "ItemKNN", "CofiRank"} {
		base := base
		t.Run(base, func(t *testing.T) {
			p := buildPersistablePipeline(t, split.Train, base)
			path := filepath.Join(dir, base+".snap")
			if err := p.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadEngine(path)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Name() != p.Name() {
				t.Fatalf("loaded pipeline %q != saved %q", loaded.Name(), p.Name())
			}
			ctx := context.Background()
			// Online parity first (before any batch sweep mutates Dyn state).
			for u := UserID(0); u < 5; u++ {
				a, err := p.RecommendUser(ctx, u, 5)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.RecommendUser(ctx, u, 5)
				if err != nil {
					t.Fatal(err)
				}
				assertRecsIdentical(t, base+" online", Recommendations{u: b}, Recommendations{u: a})
			}
			want, err := p.RecommendAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.RecommendAll(ctx)
			if err != nil {
				t.Fatal(err)
			}
			assertRecsIdentical(t, base, got, want)
		})
	}
}

// TestSaveLoadPreservesDynState checks that accumulated Dyn frequencies
// survive the round trip: an engine saved *after* a batch sweep must reload
// with the discounted coverage state, not a zeroed one.
func TestSaveLoadPreservesDynState(t *testing.T) {
	split := persistSplit(t, 37)
	p := buildPersistablePipeline(t, split.Train, "Pop")
	ctx := context.Background()
	if _, err := p.RecommendAll(ctx); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "warm.snap")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(path)
	if err != nil {
		t.Fatal(err)
	}
	// Both engines now hold the post-sweep frequency state; their next
	// outputs must again be identical.
	want, err := p.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.RecommendAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertRecsIdentical(t, "post-sweep", got, want)
}

// TestSaveAfterIngestInternedNewUsers: a pipeline whose ingestor has since
// interned new users and items (the interner tables are shared with every
// Extend successor) still saves only what it covers: the snapshot loads, and
// it is byte for byte the one the pipeline saved before the growth.
func TestSaveAfterIngestInternedNewUsers(t *testing.T) {
	split := persistSplit(t, 3)
	p := buildPersistablePipeline(t, split.Train, "Pop")
	dir := t.TempDir()
	before, after := filepath.Join(dir, "before.snap"), filepath.Join(dir, "after.snap")
	if err := p.Save(before); err != nil {
		t.Fatal(err)
	}
	ing, err := NewIngestor(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var events []IngestEvent
	for k := 0; k < 5; k++ {
		events = append(events, IngestEvent{User: fmt.Sprintf("new-user-%d", k), Item: fmt.Sprintf("new-item-%d", k), Value: 4})
	}
	if _, err := ing.Apply(context.Background(), events); err != nil {
		t.Fatal(err)
	}
	if got, had := p.Train().UserInterner().Len(), p.Train().NumUsers(); got != had+5 {
		t.Fatalf("interner holds %d users, want the saved pipeline's %d plus 5", got, had)
	}
	if err := p.Save(after); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(after); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(before)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(after)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("the snapshot of one pipeline changed when a successor grew the interners (%d vs %d bytes)", len(a), len(b))
	}
}

// TestLoadEngineErrorPaths exercises the corrupted/truncated/unsupported
// snapshot failure modes: every one must yield a matchable error, never a
// panic or a silently wrong engine.
func TestLoadEngineErrorPaths(t *testing.T) {
	split := persistSplit(t, 41)
	p := buildPersistablePipeline(t, split.Train, "Pop")
	dir := t.TempDir()
	path := filepath.Join(dir, "good.snap")
	if err := p.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("missing file", func(t *testing.T) {
		if _, err := LoadEngine(filepath.Join(dir, "nope.snap")); err == nil {
			t.Fatal("expected an error for a missing snapshot")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := filepath.Join(dir, "magic.snap")
		if err := os.WriteFile(bad, []byte("definitely not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(bad); !errors.Is(err, ErrSnapshotBadMagic) {
			t.Fatalf("err = %v, want ErrSnapshotBadMagic", err)
		}
	})
	t.Run("unsupported version", func(t *testing.T) {
		buf := append([]byte("GANCSNAP"), 0, 0, 0, 0, 0, 0, 0, 0)
		binary.BigEndian.PutUint32(buf[8:], 99)
		bad := filepath.Join(dir, "future.snap")
		if err := os.WriteFile(bad, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(bad); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("err = %v, want ErrSnapshotVersion", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{10, 40, len(raw) / 2, len(raw) - 3} {
			bad := filepath.Join(dir, fmt.Sprintf("trunc%d.snap", cut))
			if err := os.WriteFile(bad, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadEngine(bad); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("cut %d: err = %v, want ErrSnapshotCorrupt", cut, err)
			}
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		flipped := append([]byte(nil), raw...)
		flipped[len(flipped)/2] ^= 0x10
		bad := filepath.Join(dir, "flip.snap")
		if err := os.WriteFile(bad, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadEngine(bad); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
		}
	})
}

// TestSaveRejectsUnsupportedComponents: custom accuracy recommenders and the
// Rand coverage baseline have no snapshot codec and must fail loudly.
func TestSaveRejectsUnsupportedComponents(t *testing.T) {
	split := persistSplit(t, 43)
	dir := t.TempDir()

	randCov, err := NewPipeline(split.Train, WithBaseNamed("Pop"), WithCoverage(CoverageRand()), WithTopN(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := randCov.Save(filepath.Join(dir, "rand.snap")); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("Rand coverage: err = %v, want ErrSnapshotUnsupported", err)
	}

	custom, err := NewPipeline(split.Train, WithAccuracy(constantAccuracy{}), WithTopN(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := custom.Save(filepath.Join(dir, "custom.snap")); !errors.Is(err, ErrSnapshotUnsupported) {
		t.Fatalf("custom accuracy: err = %v, want ErrSnapshotUnsupported", err)
	}
}

// constantAccuracy is a minimal custom accuracy recommender for the
// unsupported-component test.
type constantAccuracy struct{}

func (constantAccuracy) AccuracyScore(UserID, ItemID) float64 { return 0.5 }
func (constantAccuracy) Name() string                         { return "Const" }

// TestLoadsParentSnapshots is the on-disk contract (DESIGN.md §8's
// compatibility rules): testdata/snapshots holds one snapshot per baseKinds
// row, written by Pipeline.Save at fc36d43, the commit before the facade was
// folded into that table (28 users × 50 items; Pop.snap was saved after a sweep, so it carries
// accumulated Dyn frequencies and the since-retired "popcache" section), and
// digests.txt the pipeline name and RecommendAll digest that commit's
// LoadEngine produced from each. RSVD-f32.snap is the same RSVD pipeline saved
// at be05226, the last commit with a precision option, with that option at
// its float32 value: its base section carries the float32 copy of the factor blocks
// and, like PSVD.snap, its meta says "f32". Every file must still load, save
// back to the sections it was read from byte for byte — but for the precision
// field, which is read and no longer written — and recommend the same lists.
func TestLoadsParentSnapshots(t *testing.T) {
	table, err := os.ReadFile(filepath.Join("testdata", "snapshots", "digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string][2]string{}
	var files []string
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		cols := strings.Split(line, "\t")
		if len(cols) != 3 {
			t.Fatalf("digests.txt: malformed line %q", line)
		}
		recorded[cols[0]] = [2]string{cols[1], cols[2]}
		files = append(files, cols[0])
	}
	for k := range baseKinds {
		if _, ok := recorded[baseKinds[k].name]; !ok {
			t.Errorf("no parent-written snapshot recorded for base kind %s", baseKinds[k].name)
		}
	}
	for _, kind := range files {
		t.Run(kind, func(t *testing.T) {
			want := recorded[kind]
			path := filepath.Join("testdata", "snapshots", kind+".snap")
			golden, err := persist.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if kind == "Pop" && !golden.Has("popcache") {
				t.Fatal("Pop.snap lost the retired popcache section it exists to carry")
			}
			p, err := LoadEngine(path)
			if err != nil {
				t.Fatal(err)
			}
			if p.Name() != want[0] {
				t.Fatalf("loaded %q, the parent loaded %q", p.Name(), want[0])
			}

			resaved := filepath.Join(t.TempDir(), "resaved.snap")
			if err := p.Save(resaved); err != nil {
				t.Fatal(err)
			}
			again, err := persist.Load(resaved)
			if err != nil {
				t.Fatal(err)
			}
			var kept []string
			for _, name := range golden.Sections() {
				if name != "popcache" {
					kept = append(kept, name)
				}
			}
			if !slices.Equal(again.Sections(), kept) {
				t.Fatalf("saved sections %v, the parent wrote %v", again.Sections(), kept)
			}
			// Gob numbers its types per process, so sections are compared as
			// what they decode to; the base and dataset payloads through the
			// lists they produce, below.
			sameSection(t, golden, again, sectionMeta, func(m *snapshotMeta) { m.Precision = "" })
			sameSection[prefsSnapshot](t, golden, again, sectionPrefs, nil)
			sameSection[coverageSnapshot](t, golden, again, sectionCoverage, nil)
			reloaded, err := LoadEngine(resaved)
			if err != nil {
				t.Fatal(err)
			}

			if runtime.GOARCH != "amd64" {
				t.Skip("digests were recorded on amd64; other architectures fuse and order float operations differently")
			}
			for label, engine := range map[string]*Pipeline{"loaded": p, "saved again and loaded": reloaded} {
				recs, err := engine.RecommendAll(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got := collectionDigest(engine.Train(), recs); got != want[1] {
					t.Errorf("%s: RecommendAll digest %s, the parent's was %s", label, got, want[1])
				}
			}
		})
	}
}

// sameSection fails unless the named gob section decodes to the same value in
// both snapshots, once forget (when not nil) has cleared the fields that are
// read and no longer written.
func sameSection[T any](t *testing.T, a, b *persist.Snapshot, name string, forget func(*T)) {
	t.Helper()
	var x, y T
	if err := a.Gob(name, &x); err != nil {
		t.Fatal(err)
	}
	if err := b.Gob(name, &y); err != nil {
		t.Fatal(err)
	}
	if forget != nil {
		forget(&x)
		forget(&y)
	}
	if !reflect.DeepEqual(x, y) {
		t.Errorf("section %q: saved %+v, the parent wrote %+v", name, y, x)
	}
}
