package mf

import (
	"bytes"
	"testing"

	"ganc/internal/types"
)

func TestRSVDSaveLoadRoundTrip(t *testing.T) {
	sp := learnableSplit(t)
	cfg := RSVDConfig{Factors: 8, LearningRate: 0.02, Regularization: 0.05, Epochs: 3, UseBiases: true, InitStd: 0.1, Seed: 19}
	orig, err := TrainRSVD(sp.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRSVD(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != orig.Name() || loaded.Factors() != orig.Factors() {
		t.Fatal("metadata lost in round trip")
	}
	for u := 0; u < 10 && u < sp.Train.NumUsers(); u++ {
		for i := 0; i < 10 && i < sp.Train.NumItems(); i++ {
			a := orig.Score(types.UserID(u), types.ItemID(i))
			b := loaded.Score(types.UserID(u), types.ItemID(i))
			if a != b {
				t.Fatalf("score mismatch after reload at (%d,%d): %v vs %v", u, i, a, b)
			}
		}
	}
	if loaded.RMSE(sp.Test) != orig.RMSE(sp.Test) {
		t.Fatal("RMSE differs after reload")
	}
}

func TestPSVDSaveLoadRoundTrip(t *testing.T) {
	sp := learnableSplit(t)
	orig, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 6, PowerIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPSVD(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != orig.Name() || loaded.Factors() != orig.Factors() {
		t.Fatal("metadata lost in round trip")
	}
	for u := 0; u < 10 && u < sp.Train.NumUsers(); u++ {
		for i := 0; i < 10 && i < sp.Train.NumItems(); i++ {
			if orig.Score(types.UserID(u), types.ItemID(i)) != loaded.Score(types.UserID(u), types.ItemID(i)) {
				t.Fatal("score mismatch after reload")
			}
		}
	}
	if len(loaded.singulars) != orig.Factors() {
		t.Fatal("singular values lost in round trip")
	}
}

func TestLoadRejectsGarbageAndWrongVersions(t *testing.T) {
	if _, err := LoadRSVD([]byte("not a gob stream")); err == nil {
		t.Fatal("garbage RSVD snapshot did not error")
	}
	if _, err := LoadPSVD([]byte("still not a gob stream")); err == nil {
		t.Fatal("garbage PSVD snapshot did not error")
	}
	// A structurally valid but empty snapshot must be rejected too.
	empty := &RSVD{cfg: RSVDConfig{Factors: 1}, name: "RSVD"}
	var buf bytes.Buffer
	if err := empty.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRSVD(buf.Bytes()); err == nil {
		t.Fatal("snapshot without factors did not error")
	}
}
