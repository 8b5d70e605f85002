package mf

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// oracleSaveRSVD and oracleSavePSVD are the Save methods as they were
// before the rows and biases left the gob envelope: version 2, everything a
// gob field. They are kept to write that layout, which the loaders still
// read.
func oracleSaveRSVD(m *RSVD, w io.Writer) error {
	return gob.NewEncoder(w).Encode(&rsvdSnapshot{
		Version:    lastGobRows,
		Config:     m.cfg,
		GlobalMean: m.globalMean,
		UserBias:   m.userBias,
		ItemBias:   m.itemBias,
		UserF:      m.userF,
		ItemF:      m.itemF,
		Name:       m.name,
	})
}

func oracleSavePSVD(m *PSVD, w io.Writer) error {
	return gob.NewEncoder(w).Encode(&psvdSnapshot{
		Version:   lastGobRows,
		Factors:   m.factors,
		UserF:     m.userF,
		ItemF:     m.itemF,
		Name:      m.name,
		NumItems:  m.numItems,
		NumUsers:  m.numUsers,
		Singulars: m.singulars,
	})
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	return true
}

// encodeBoth returns a model's bytes in the column layout and in the gob
// layout.
func encodeBoth(t *testing.T, save, oracle func(io.Writer) error) (columns, gobbed []byte) {
	t.Helper()
	var c, g bytes.Buffer
	if err := save(&c); err != nil {
		t.Fatal(err)
	}
	if err := oracle(&g); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), g.Bytes()
}

// TestLoadMatchesGobRowsOracle: a model decoded from the column layout
// equals, bit for bit, the one decoded from the gob layout it replaced and
// the model that was saved — factor rows, biases, mean, configuration and
// the float32 blocks built from them — with biases on and off.
func TestLoadMatchesGobRowsOracle(t *testing.T) {
	sp := learnableSplit(t)
	for _, biases := range []bool{true, false} {
		cfg := RSVDConfig{Factors: 7, LearningRate: 0.02, Regularization: 0.05, Epochs: 2, UseBiases: biases, InitStd: 0.1, Seed: 3}
		m, err := TrainRSVD(sp.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		columns, gobbed := encodeBoth(t, m.Save, func(w io.Writer) error { return oracleSaveRSVD(m, w) })
		fromColumns, err := LoadRSVD(columns)
		if err != nil {
			t.Fatal(err)
		}
		fromGob, err := LoadRSVD(gobbed)
		if err != nil {
			t.Fatal(err)
		}
		for label, want := range map[string]*RSVD{"gob layout": fromGob, "saved model": m} {
			got := fromColumns
			if got.cfg != want.cfg || got.name != want.name || math.Float64bits(got.globalMean) != math.Float64bits(want.globalMean) ||
				!sameBits(got.userBias, want.userBias) || !sameBits(got.itemBias, want.itemBias) ||
				!sameRows(got.userF, want.userF) || !sameRows(got.itemF, want.itemF) || !reflect.DeepEqual(got.fp, want.fp) {
				t.Fatalf("biases %v: the RSVD decoded from columns differs from the %s", biases, label)
			}
		}
	}

	p, err := TrainPSVD(sp.Train, PSVDConfig{Factors: 6, PowerIterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	columns, gobbed := encodeBoth(t, p.Save, func(w io.Writer) error { return oracleSavePSVD(p, w) })
	fromColumns, err := LoadPSVD(columns)
	if err != nil {
		t.Fatal(err)
	}
	fromGob, err := LoadPSVD(gobbed)
	if err != nil {
		t.Fatal(err)
	}
	for label, want := range map[string]*PSVD{"gob layout": fromGob, "saved model": p} {
		got := fromColumns
		if got.factors != want.factors || got.name != want.name || got.numUsers != want.numUsers || got.numItems != want.numItems ||
			!sameBits(got.singulars, want.singulars) || !sameRows(got.userF, want.userF) || !sameRows(got.itemF, want.itemF) ||
			!reflect.DeepEqual(got.fp, want.fp) {
			t.Fatalf("the PSVD decoded from columns differs from the %s", label)
		}
	}
}

// TestLoadRefusesHostileFactors: a CRC-valid section whose rows are ragged,
// whose user and item rows disagree on their width, whose biases do not
// cover the rows the model adds them for, or whose PSVD counts disagree with
// its rows, fails to load — in both layouts — instead of loading a model
// that panics on its first score.
func TestLoadRefusesHostileFactors(t *testing.T) {
	rows := func(n, dims int) [][]float64 {
		out := make([][]float64, n)
		for k := range out {
			out[k] = make([]float64, dims)
			for f := range out[k] {
				out[k][f] = float64(k+f) / 10
			}
		}
		return out
	}
	ragged := rows(5, 4)
	ragged[4] = append(ragged[4], 1)
	rsvd := func(edit func(m *RSVD)) *RSVD {
		m := &RSVD{cfg: RSVDConfig{Factors: 4, UseBiases: true}, userBias: make([]float64, 3), itemBias: make([]float64, 5),
			userF: rows(3, 4), itemF: rows(5, 4), name: "RSVD"}
		edit(m)
		return m
	}
	psvd := func(edit func(m *PSVD)) *PSVD {
		m := &PSVD{factors: 4, userF: rows(3, 4), itemF: rows(5, 4), numUsers: 3, numItems: 5, name: "PSVD4"}
		edit(m)
		return m
	}
	type model struct {
		save, oracle func(io.Writer) error
		load         func([]byte) error
		want         string
	}
	rsvdCase := func(want string, edit func(m *RSVD)) model {
		m := rsvd(edit)
		return model{m.Save, func(w io.Writer) error { return oracleSaveRSVD(m, w) },
			func(b []byte) error { _, err := LoadRSVD(b); return err }, want}
	}
	psvdCase := func(want string, edit func(m *PSVD)) model {
		m := psvd(edit)
		return model{m.Save, func(w io.Writer) error { return oracleSavePSVD(m, w) },
			func(b []byte) error { _, err := LoadPSVD(b); return err }, want}
	}
	cases := map[string]model{
		"RSVD ragged item row":   rsvdCase("item row 4 has 5 factors", func(m *RSVD) { m.itemF = ragged }),
		"RSVD ragged user row":   rsvdCase("user row 2 has 5 factors", func(m *RSVD) { m.userF[2] = append(m.userF[2], 1) }),
		"RSVD narrower items":    rsvdCase("item row 0 has 3 factors", func(m *RSVD) { m.itemF = rows(5, 3) }),
		"RSVD short user biases": rsvdCase("biases cover 2 users", func(m *RSVD) { m.userBias = m.userBias[:2] }),
		"RSVD no user biases":    rsvdCase("biases cover 0 users", func(m *RSVD) { m.userBias = nil }),
		"RSVD short item biases": rsvdCase("and 4 items", func(m *RSVD) { m.itemBias = m.itemBias[:4] }),
		"PSVD ragged item row":   psvdCase("item row 4 has 5 factors", func(m *PSVD) { m.itemF = ragged }),
		"PSVD users past rows":   psvdCase("covers 4 users", func(m *PSVD) { m.numUsers = 4 }),
		"PSVD items past rows":   psvdCase("and 6 items", func(m *PSVD) { m.numItems = 6 }),
	}
	for name, c := range cases {
		// The column writer refuses ragged rows, so only the gob layout can
		// carry them.
		var columns, gobbed bytes.Buffer
		if err := c.save(&columns); (err != nil) != strings.Contains(name, "ragged") {
			t.Errorf("%s: Save err = %v", name, err)
		}
		if err := c.oracle(&gobbed); err != nil {
			t.Fatal(err)
		}
		for layout, data := range map[string][]byte{"columns": columns.Bytes(), "gob": gobbed.Bytes()} {
			if strings.Contains(name, "ragged") && layout == "columns" {
				continue
			}
			if err := c.load(data); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s layout: err = %v, want one naming %q", name, layout, err, c.want)
			}
		}
	}
}
