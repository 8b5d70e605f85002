package rank

import (
	"encoding/gob"
	"fmt"
	"io"

	"ganc/internal/linalg"
	"ganc/internal/types"
)

// Model persistence: trained collaborative-ranking factorizations serialize
// their factor matrices with encoding/gob behind a version tag, matching the
// RSVD/PSVD snapshot convention in internal/mf: version 2 carried a serving
// precision tier and a copy of the float32 factor blocks, neither of which is
// written any more (the blocks are rebuilt from the float64 rows at load);
// both versions still load.

// rankSnapshotVersion guards the gob payload layout.
const rankSnapshotVersion = 2

// rankSnapshot is the gob-encoded form of a rank.Model. Precision is read from
// older snapshots and never written.
type rankSnapshot struct {
	Version   int
	Config    Config
	UserF     [][]float64
	ItemF     [][]float64
	Mean      float64
	Name      string
	Precision string
}

// Save writes the model to w in its versioned gob form.
func (m *Model) Save(w io.Writer) error {
	snap := rankSnapshot{
		Version: rankSnapshotVersion,
		Config:  m.cfg,
		UserF:   m.userF,
		ItemF:   m.itemF,
		Mean:    m.mean,
		Name:    m.name,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("rank: save model: %w", err)
	}
	return nil
}

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) {
	var snap rankSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("rank: load model: %w", err)
	}
	if snap.Version < 1 || snap.Version > rankSnapshotVersion {
		return nil, fmt.Errorf("rank: load model: unsupported snapshot version %d (this build reads versions 1–%d)",
			snap.Version, rankSnapshotVersion)
	}
	if len(snap.UserF) == 0 || len(snap.ItemF) == 0 {
		return nil, fmt.Errorf("rank: load model: snapshot has no factors")
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
