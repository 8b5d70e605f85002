package rank

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// oracleSave is (*Model).Save as it was before the rows left the gob
// envelope: version 2, the rows gob fields. It is kept to write that layout,
// which Load still reads.
func oracleSave(m *Model, w io.Writer) error {
	return gob.NewEncoder(w).Encode(&rankSnapshot{
		Version: lastGobRows,
		Config:  m.cfg,
		UserF:   m.userF,
		ItemF:   m.itemF,
		Mean:    m.mean,
		Name:    m.name,
	})
}

func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			return false
		}
		for f := range a[k] {
			if math.Float64bits(a[k][f]) != math.Float64bits(b[k][f]) {
				return false
			}
		}
	}
	return true
}

// TestLoadMatchesGobRowsOracle: a model decoded from the column layout
// equals, bit for bit, the one decoded from the gob layout it replaced and
// the model that was saved, under both losses.
func TestLoadMatchesGobRowsOracle(t *testing.T) {
	d := bulkTestDataset()
	for _, loss := range []Loss{LossRegression, LossPairwise} {
		cfg := DefaultConfig()
		cfg.Factors, cfg.Epochs, cfg.Seed, cfg.Loss = 9, 2, 4, loss
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var columns, gobbed bytes.Buffer
		if err := m.Save(&columns); err != nil {
			t.Fatal(err)
		}
		if err := oracleSave(m, &gobbed); err != nil {
			t.Fatal(err)
		}
		fromColumns, err := Load(columns.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fromGob, err := Load(gobbed.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for label, want := range map[string]*Model{"gob layout": fromGob, "saved model": m} {
			got := fromColumns
			if got.cfg != want.cfg || got.name != want.name || math.Float64bits(got.mean) != math.Float64bits(want.mean) ||
				!sameRows(got.userF, want.userF) || !sameRows(got.itemF, want.itemF) || !reflect.DeepEqual(got.fp, want.fp) {
				t.Fatalf("loss %v: the model decoded from columns differs from the %s", loss, label)
			}
		}
	}
}

// TestLoadRefusesRaggedFactors: a CRC-valid section whose rows are ragged
// or whose user and item rows disagree on their width fails to load instead
// of loading a model that panics on its first score.
func TestLoadRefusesRaggedFactors(t *testing.T) {
	rows := func(n, dims int) [][]float64 {
		out := make([][]float64, n)
		for k := range out {
			out[k] = make([]float64, dims)
		}
		return out
	}
	ragged := rows(5, 4)
	ragged[4] = append(ragged[4], 1)
	for want, m := range map[string]*Model{
		"item row 4 has 5 factors": {cfg: DefaultConfig(), userF: rows(3, 4), itemF: ragged, name: "CofiR"},
		"item row 0 has 6 factors": {cfg: DefaultConfig(), userF: rows(3, 4), itemF: rows(5, 6), name: "CofiR"},
	} {
		var gobbed bytes.Buffer
		if err := oracleSave(m, &gobbed); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(gobbed.Bytes()); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want one naming %q", err, want)
		}
	}
}
