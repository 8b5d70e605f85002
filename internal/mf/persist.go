package mf

import (
	"fmt"
	"io"

	"ganc/internal/linalg"
	"ganc/internal/persist"
	"ganc/internal/types"
)

// Model persistence: trained factor models are serialized as a gob envelope
// of their configuration followed by their factor rows and biases as
// fixed-width columns (persist.WriteColumns), and reloaded later, so a
// production deployment can train offline (cmd/ganc) and serve from a
// snapshot without retraining. The snapshot formats are versioned so that
// incompatible future changes fail loudly instead of silently mis-decoding.
//
// Versions 1 and 2 held the rows and biases as gob fields of the envelope;
// version 2 also carried a serving-precision tier and, for the float32 tier,
// a flat copy of the float32 factor blocks. Version 3, the one written, moves
// the rows and biases into columns and writes neither of the others: there
// is one tier, and the blocks are rebuilt from the float64 rows at load —
// they are a pure function of them. The reader accepts all three, skips the
// block copy, and refuses only a retired tier's spelling.

const (
	rsvdSnapshotVersion = 3
	psvdSnapshotVersion = 3
	// lastGobRows is the last version whose rows are gob fields.
	lastGobRows = 2
)

// rsvdSnapshot is the gob envelope of an RSVD model. The biases and rows are
// read from version 1 and 2 snapshots and never written; Precision is read
// from older snapshots and never written.
type rsvdSnapshot struct {
	Version    int
	Config     RSVDConfig
	GlobalMean float64
	UserBias   []float64
	ItemBias   []float64
	UserF      [][]float64
	ItemF      [][]float64
	Name       string
	Precision  string
}

// Save writes the model to w: its envelope, then the user and item biases
// and the user and item factor rows.
func (m *RSVD) Save(w io.Writer) error {
	snap := rsvdSnapshot{
		Version:    rsvdSnapshotVersion,
		Config:     m.cfg,
		GlobalMean: m.globalMean,
		Name:       m.name,
	}
	err := persist.WriteColumns(w, &snap, func(c *persist.ColumnWriter) {
		c.Float64s(m.userBias)
		c.Float64s(m.itemBias)
		c.Matrix(m.userF)
		c.Matrix(m.itemF)
	})
	if err != nil {
		return fmt.Errorf("mf: save RSVD: %w", err)
	}
	return nil
}

// LoadRSVD decodes a model previously written by (*RSVD).Save, in any
// version. Ragged or mismatched factor rows, and biases that do not cover
// the rows when the model adds them, are refused.
func LoadRSVD(data []byte) (*RSVD, error) {
	var snap rsvdSnapshot
	cols, err := persist.ReadColumns(data, &snap)
	if err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	if snap.Version < 1 || snap.Version > rsvdSnapshotVersion {
		return nil, fmt.Errorf("mf: load RSVD: unsupported snapshot version %d", snap.Version)
	}
	if snap.Version > lastGobRows {
		snap.UserBias, snap.ItemBias = cols.Float64s(), cols.Float64s()
		snap.UserF, snap.ItemF = cols.Matrix(), cols.Matrix()
	}
	if err := cols.Close(); err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	if len(snap.UserF) == 0 || len(snap.ItemF) == 0 {
		return nil, fmt.Errorf("mf: load RSVD: snapshot has no factors")
	}
	if err := linalg.CheckFactors(snap.UserF, snap.ItemF); err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	if snap.Config.UseBiases && (len(snap.UserBias) != len(snap.UserF) || len(snap.ItemBias) != len(snap.ItemF)) {
		return nil, fmt.Errorf("mf: load RSVD: biases cover %d users and %d items, the factor rows %d and %d",
			len(snap.UserBias), len(snap.ItemBias), len(snap.UserF), len(snap.ItemF))
	}
	if err := types.CheckSnapshotPrecision(snap.Precision); err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	return &RSVD{
		cfg:        snap.Config,
		globalMean: snap.GlobalMean,
		userBias:   snap.UserBias,
		itemBias:   snap.ItemBias,
		userF:      snap.UserF,
		itemF:      snap.ItemF,
		name:       snap.Name,
		fp:         linalg.NewFactorPair(snap.UserF, snap.ItemF),
	}, nil
}

// psvdSnapshot is the gob envelope of a PSVD model. The rows are read from
// version 1 and 2 snapshots and never written; Precision is read from older
// snapshots and never written.
type psvdSnapshot struct {
	Version   int
	Factors   int
	UserF     [][]float64
	ItemF     [][]float64
	Name      string
	NumItems  int
	NumUsers  int
	Singulars []float64
	Precision string
}

// Save writes the model to w: its envelope, then the user and item factor
// rows.
func (m *PSVD) Save(w io.Writer) error {
	snap := psvdSnapshot{
		Version:   psvdSnapshotVersion,
		Factors:   m.factors,
		Name:      m.name,
		NumItems:  m.numItems,
		NumUsers:  m.numUsers,
		Singulars: m.singulars,
	}
	err := persist.WriteColumns(w, &snap, func(c *persist.ColumnWriter) {
		c.Matrix(m.userF)
		c.Matrix(m.itemF)
	})
	if err != nil {
		return fmt.Errorf("mf: save PSVD: %w", err)
	}
	return nil
}

// LoadPSVD decodes a model previously written by (*PSVD).Save, in any
// version. Ragged factor rows, and user or item counts the rows do not
// match, are refused.
func LoadPSVD(data []byte) (*PSVD, error) {
	var snap psvdSnapshot
	cols, err := persist.ReadColumns(data, &snap)
	if err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	if snap.Version < 1 || snap.Version > psvdSnapshotVersion {
		return nil, fmt.Errorf("mf: load PSVD: unsupported snapshot version %d", snap.Version)
	}
	if snap.Version > lastGobRows {
		snap.UserF, snap.ItemF = cols.Matrix(), cols.Matrix()
	}
	if err := cols.Close(); err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	if snap.Factors <= 0 || len(snap.UserF) == 0 {
		return nil, fmt.Errorf("mf: load PSVD: snapshot has no factors")
	}
	if err := linalg.CheckFactors(snap.UserF, snap.ItemF); err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	if snap.NumUsers != len(snap.UserF) || snap.NumItems != len(snap.ItemF) {
		return nil, fmt.Errorf("mf: load PSVD: the model covers %d users and %d items, the factor rows %d and %d",
			snap.NumUsers, snap.NumItems, len(snap.UserF), len(snap.ItemF))
	}
	if err := types.CheckSnapshotPrecision(snap.Precision); err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	return &PSVD{
		factors:   snap.Factors,
		userF:     snap.UserF,
		itemF:     snap.ItemF,
		name:      snap.Name,
		numItems:  snap.NumItems,
		numUsers:  snap.NumUsers,
		singulars: snap.Singulars,
		fp:        linalg.NewFactorPair(snap.UserF, snap.ItemF),
	}, nil
}
