package mf

import (
	"encoding/gob"
	"fmt"
	"io"

	"ganc/internal/linalg"
	"ganc/internal/types"
)

// Model persistence: trained factor models can be serialized with encoding/gob
// and reloaded later, so a production deployment can train offline (cmd/ganc)
// and serve from a snapshot without retraining. The snapshot formats are
// versioned so that incompatible future changes fail loudly instead of
// silently mis-decoding.
//
// Version 2 carried a serving-precision tier and, for the float32 tier, a
// flat copy of the float32 factor blocks. There is one tier now and the blocks
// are rebuilt from the float64 rows at load — they are a pure function of
// them — so the writer emits neither; the reader still accepts both versions,
// skips the block copy, and refuses only a retired tier's spelling.

const (
	rsvdSnapshotVersion = 2
	psvdSnapshotVersion = 2
)

// rsvdSnapshot is the gob-encoded form of an RSVD model. Precision is read
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

// Save writes the model to w in gob format.
func (m *RSVD) Save(w io.Writer) error {
	snap := rsvdSnapshot{
		Version:    rsvdSnapshotVersion,
		Config:     m.cfg,
		GlobalMean: m.globalMean,
		UserBias:   m.userBias,
		ItemBias:   m.itemBias,
		UserF:      m.userF,
		ItemF:      m.itemF,
		Name:       m.name,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("mf: save RSVD: %w", err)
	}
	return nil
}

// LoadRSVD reads a model previously written by (*RSVD).Save.
func LoadRSVD(r io.Reader) (*RSVD, error) {
	var snap rsvdSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	if snap.Version < 1 || snap.Version > rsvdSnapshotVersion {
		return nil, fmt.Errorf("mf: load RSVD: unsupported snapshot version %d", snap.Version)
	}
	if len(snap.UserF) == 0 || len(snap.ItemF) == 0 {
		return nil, fmt.Errorf("mf: load RSVD: snapshot has no factors")
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

// psvdSnapshot is the gob-encoded form of a PSVD model. Precision is read
// from older snapshots and never written.
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

// Save writes the model to w in gob format.
func (m *PSVD) Save(w io.Writer) error {
	snap := psvdSnapshot{
		Version:   psvdSnapshotVersion,
		Factors:   m.factors,
		UserF:     m.userF,
		ItemF:     m.itemF,
		Name:      m.name,
		NumItems:  m.numItems,
		NumUsers:  m.numUsers,
		Singulars: m.singulars,
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("mf: save PSVD: %w", err)
	}
	return nil
}

// LoadPSVD reads a model previously written by (*PSVD).Save.
func LoadPSVD(r io.Reader) (*PSVD, error) {
	var snap psvdSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	if snap.Version < 1 || snap.Version > psvdSnapshotVersion {
		return nil, fmt.Errorf("mf: load PSVD: unsupported snapshot version %d", snap.Version)
	}
	if snap.Factors <= 0 || len(snap.UserF) == 0 {
		return nil, fmt.Errorf("mf: load PSVD: snapshot has no factors")
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
