package rank

import (
	"fmt"
	"io"

	"ganc/internal/linalg"
	"ganc/internal/persist"
	"ganc/internal/types"
)

// Model persistence: trained collaborative-ranking factorizations serialize
// as a gob envelope behind a version tag followed by their factor rows as
// fixed-width columns (persist.WriteColumns), matching the RSVD/PSVD snapshot
// convention in internal/mf: versions 1 and 2 held the rows as gob fields,
// and version 2 carried a serving precision tier and a copy of the float32
// factor blocks, neither of which is written any more (the blocks are rebuilt
// from the float64 rows at load); all three versions load.

const (
	// rankSnapshotVersion guards the payload layout.
	rankSnapshotVersion = 3
	// lastGobRows is the last version whose rows are gob fields.
	lastGobRows = 2
)

// rankSnapshot is the gob envelope of a rank.Model. The rows are read from
// version 1 and 2 snapshots and never written; Precision is read from older
// snapshots and never written.
type rankSnapshot struct {
	Version   int
	Config    Config
	UserF     [][]float64
	ItemF     [][]float64
	Mean      float64
	Name      string
	Precision string
}

// Save writes the model to w: its envelope, then the user and item factor
// rows.
func (m *Model) Save(w io.Writer) error {
	snap := rankSnapshot{
		Version: rankSnapshotVersion,
		Config:  m.cfg,
		Mean:    m.mean,
		Name:    m.name,
	}
	err := persist.WriteColumns(w, &snap, func(c *persist.ColumnWriter) {
		c.Matrix(m.userF)
		c.Matrix(m.itemF)
	})
	if err != nil {
		return fmt.Errorf("rank: save model: %w", err)
	}
	return nil
}

// Load decodes a model previously written by Save, in any version. Ragged
// or mismatched factor rows are refused.
func Load(data []byte) (*Model, error) {
	var snap rankSnapshot
	cols, err := persist.ReadColumns(data, &snap)
	if err != nil {
		return nil, fmt.Errorf("rank: load model: %w", err)
	}
	if snap.Version < 1 || snap.Version > rankSnapshotVersion {
		return nil, fmt.Errorf("rank: load model: unsupported snapshot version %d (this build reads versions 1–%d)",
			snap.Version, rankSnapshotVersion)
	}
	if snap.Version > lastGobRows {
		snap.UserF, snap.ItemF = cols.Matrix(), cols.Matrix()
	}
	if err := cols.Close(); err != nil {
		return nil, fmt.Errorf("rank: load model: %w", err)
	}
	if len(snap.UserF) == 0 || len(snap.ItemF) == 0 {
		return nil, fmt.Errorf("rank: load model: snapshot has no factors")
	}
	if err := linalg.CheckFactors(snap.UserF, snap.ItemF); err != nil {
		return nil, fmt.Errorf("rank: load model: %w", err)
	}
	if err := types.CheckSnapshotPrecision(snap.Precision); err != nil {
		return nil, fmt.Errorf("rank: load model: %w", err)
	}
	return &Model{
		cfg:   snap.Config,
		userF: snap.UserF,
		itemF: snap.ItemF,
		mean:  snap.Mean,
		name:  snap.Name,
		fp:    linalg.NewFactorPair(snap.UserF, snap.ItemF),
	}, nil
}
