package ganc

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ganc/internal/persist"
)

// withSection writes a copy of the snapshot at src to dst with the named
// section's payload replaced by payload, checksum recomputed.
func withSection(t testing.TB, src, dst, name string, payload []byte) {
	t.Helper()
	snap, err := persist.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	var b persist.Builder
	for _, s := range snap.Sections() {
		p, err := snap.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		if s == name {
			p = payload
		}
		b.Add(s, p)
	}
	if err := b.Save(dst); err != nil {
		t.Fatal(err)
	}
}

// gobRSVD is the RSVD base section's layout before its rows and biases
// became columns (version 2): every field a gob field, which LoadEngine
// still reads.
type gobRSVD struct {
	Version    int
	Config     RSVDConfig
	GlobalMean float64
	UserBias   []float64
	ItemBias   []float64
	UserF      [][]float64
	ItemF      [][]float64
	Name       string
}

// hostileRSVD returns a CRC-valid RSVD base section for testdata's
// 28-user, 50-item snapshots after edit has had its way with it.
func hostileRSVD(t testing.TB, edit func(s *gobRSVD)) []byte {
	t.Helper()
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for k := range out {
			out[k] = []float64{0.1, 0.2, 0.3, float64(k) / 100}
		}
		return out
	}
	s := gobRSVD{Version: 2, Config: RSVDConfig{Factors: 4, UseBiases: true, Epochs: 1, LearningRate: 0.01, InitStd: 0.1},
		GlobalMean: 3.5, UserBias: make([]float64, 28), ItemBias: make([]float64, 50), UserF: rows(28), ItemF: rows(50), Name: "RSVD"}
	edit(&s)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// raggedItemRow: the last item row is one factor wider than the others.
func raggedItemRow(s *gobRSVD) { s.ItemF[len(s.ItemF)-1] = append(s.ItemF[len(s.ItemF)-1], 1) }

// noUserBiases: the model adds biases, but none are stored for the users.
func noUserBiases(s *gobRSVD) { s.UserBias = nil }

// loadHostileBase loads testdata's RSVD snapshot with its base section
// replaced and, if it loads, asks it for user 0's list.
func loadHostileBase(t *testing.T, payload []byte) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hostile.snap")
	withSection(t, filepath.Join("testdata", "snapshots", "RSVD.snap"), path, sectionBase, payload)
	p, err := LoadEngine(path)
	if err != nil {
		return err
	}
	_, err = p.RecommendUser(context.Background(), 0, 5)
	return err
}

// TestLoadEngineRefusesRaggedFactorRows: a CRC-valid RSVD section with a
// ragged item row is an error naming the row, not a panic while the
// float32 blocks are packed.
func TestLoadEngineRefusesRaggedFactorRows(t *testing.T) {
	err := loadHostileBase(t, hostileRSVD(t, raggedItemRow))
	if err == nil || !strings.Contains(err.Error(), "item row 49 has 5 factors, the first row has 4") {
		t.Fatalf("err = %v, want the ragged row named", err)
	}
}

// TestLoadEngineRefusesShortUserBiases: a CRC-valid RSVD section that adds
// biases but stores fewer user biases than user rows is an error at load,
// not a panic on the first request.
func TestLoadEngineRefusesShortUserBiases(t *testing.T) {
	err := loadHostileBase(t, hostileRSVD(t, noUserBiases))
	if err == nil || !strings.Contains(err.Error(), "biases cover 0 users and 50 items, the factor rows 28 and 50") {
		t.Fatalf("err = %v, want the bias counts named", err)
	}
}

// TestLoadedPipelineMatchesGobLayout: testdata's snapshots hold their
// dataset and factor rows in the gob layout. Each, saved again in the
// column layout and loaded, must be the pipeline the gob layout loaded —
// ratings, indexes and key tables, factor rows, biases and float32 blocks.
func TestLoadedPipelineMatchesGobLayout(t *testing.T) {
	for _, kind := range []string{"RSVD", "PSVD", "CofiRank"} {
		fromGob, err := LoadEngine(filepath.Join("testdata", "snapshots", kind+".snap"))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), kind+".snap")
		if err := fromGob.Save(path); err != nil {
			t.Fatal(err)
		}
		fromColumns, err := LoadEngine(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fromColumns.train, fromGob.train) {
			t.Errorf("%s: the dataset loaded from columns differs from the one loaded from gob", kind)
		}
		if !reflect.DeepEqual(fromColumns.baseScorer, fromGob.baseScorer) {
			t.Errorf("%s: the model loaded from columns differs from the one loaded from gob", kind)
		}
	}
}

// FuzzLoadEngineHostileSection puts fuzzed bytes into the base or the
// dataset section of a small valid snapshot, checksum recomputed, so they
// reach the section decoders. LoadEngine must refuse them or load an engine
// that answers user 0 — never panic.
func FuzzLoadEngineHostileSection(f *testing.F) {
	valid := filepath.Join(f.TempDir(), "valid.snap")
	u, err := NewUniverse(UniverseConfig{Name: "fuzz", Users: 30, Items: 20, Ratings: 300, ZipfExponent: 1.1, Seed: 2})
	if err != nil {
		f.Fatal(err)
	}
	cfg := DefaultRSVDConfig()
	cfg.Factors, cfg.Epochs = 3, 2
	m, err := TrainRSVD(u.Train(), cfg)
	if err != nil {
		f.Fatal(err)
	}
	p, err := NewPipeline(u.Train(), WithBase(m), WithPreferences(PreferenceActivity), WithCoverage(CoverageDyn()), WithTopN(5))
	if err != nil {
		f.Fatal(err)
	}
	if err := p.Save(valid); err != nil {
		f.Fatal(err)
	}
	snap, err := persist.Load(valid)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{sectionBase, sectionDataset} {
		payload, err := snap.Section(name)
		if err != nil {
			f.Fatal(err)
		}
		isDataset := name == sectionDataset
		f.Add(isDataset, payload)
		f.Add(isDataset, payload[:len(payload)/2])
		f.Add(isDataset, payload[:len(payload)-3])
		flipped := bytes.Clone(payload)
		flipped[len(flipped)-20] ^= 0x80
		f.Add(isDataset, flipped)
	}
	f.Add(false, hostileRSVD(f, raggedItemRow))
	f.Add(false, hostileRSVD(f, noUserBiases))

	f.Fuzz(func(t *testing.T, isDataset bool, payload []byte) {
		name := sectionBase
		if isDataset {
			name = sectionDataset
		}
		path := filepath.Join(t.TempDir(), "fuzzed.snap")
		withSection(t, valid, path, name, payload)
		p, err := LoadEngine(path)
		if err != nil {
			return
		}
		p.RecommendUser(context.Background(), 0, 5)
	})
}

// TestSnapshotCodecAllocs gates the snapshot codec's allocations at the
// benchmark's universe shape (20 000 users, 4 000 items, 200 000 ratings,
// RSVD with 40 factors; one epoch, which the counts do not depend on): Save
// allocates at most 2 000 objects and LoadEngine at most 40 000. Gob's
// per-element coding of the factor rows and rating columns cost about
// 24 500 and 227 000; the columns cost about 200 and 25 000, most of the
// latter the key tables' strings. Skipped under -race.
func TestSnapshotCodecAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation totals are not meaningful under the race detector")
	}
	u, err := NewUniverse(UniverseConfig{Name: "loadgen", Users: 20000, Items: 4000, Ratings: 200000, ZipfExponent: 1.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRSVDConfig()
	cfg.Factors, cfg.Epochs = 40, 1
	m, err := TrainRSVD(u.Train(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(u.Train(), WithBase(m), WithPreferences(PreferenceActivity), WithCoverage(CoverageDyn()), WithTopN(10))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "universe.snap")
	// mallocs returns the fewest objects fn allocated in three calls.
	mallocs := func(fn func()) uint64 {
		best := ^uint64(0)
		for k := 0; k < 3; k++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	save := mallocs(func() {
		if err := p.Save(path); err != nil {
			t.Fatal(err)
		}
	})
	load := mallocs(func() {
		if _, err := LoadEngine(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("objects allocated: Save %d, LoadEngine %d", save, load)
	if save > 2000 {
		t.Errorf("Save allocates %d objects, want at most 2 000", save)
	}
	if load > 40000 {
		t.Errorf("LoadEngine allocates %d objects, want at most 40 000", load)
	}
}
