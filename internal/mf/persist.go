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
// Version 2 adds the serving-precision tier and, for models serving a
// reduced tier, the flat float32 factor section (linalg.FactorSection), so a
// warm-started process reattaches the contiguous blocks without rebuilding
// them from the float64 rows. Version-1 snapshots still load (they carry no
// tier, so they come up at the exact float64 default).

const (
	rsvdSnapshotVersion = 2
	psvdSnapshotVersion = 2
)

// rsvdSnapshot is the gob-encoded form of an RSVD model. Precision and F32
// are the version-2 additions; both decode as zero values from version-1
// payloads.
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
	F32        linalg.FactorSection
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
		Precision:  m.precision.String(),
	}
	if m.precision != types.PrecisionF64 {
		if sec := m.fp.F32Section(); sec != nil {
			snap.F32 = *sec
		}
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
	m := &RSVD{
		cfg:        snap.Config,
		globalMean: snap.GlobalMean,
		userBias:   snap.UserBias,
		itemBias:   snap.ItemBias,
		userF:      snap.UserF,
		itemF:      snap.ItemF,
		name:       snap.Name,
	}
	if err := restorePrecision(&m.fp, snap.Precision, &snap.F32, len(snap.UserF), len(snap.ItemF), m.SetPrecision); err != nil {
		return nil, fmt.Errorf("mf: load RSVD: %w", err)
	}
	return m, nil
}

// psvdSnapshot is the gob-encoded form of a PSVD model. Precision and F32
// are the version-2 additions; both decode as zero values from version-1
// payloads.
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
	F32       linalg.FactorSection
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
		Precision: m.precision.String(),
	}
	if m.precision != types.PrecisionF64 {
		if sec := m.fp.F32Section(); sec != nil {
			snap.F32 = *sec
		}
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
	m := &PSVD{
		factors:   snap.Factors,
		userF:     snap.UserF,
		itemF:     snap.ItemF,
		name:      snap.Name,
		numItems:  snap.NumItems,
		numUsers:  snap.NumUsers,
		singulars: snap.Singulars,
	}
	if err := restorePrecision(&m.fp, snap.Precision, &snap.F32, len(snap.UserF), len(snap.ItemF), m.SetPrecision); err != nil {
		return nil, fmt.Errorf("mf: load PSVD: %w", err)
	}
	return m, nil
}

// restorePrecision reattaches a snapshot's serving tier: the persisted f32
// factor section (when present) is installed first, so setPrecision — the
// model's SetPrecision method — finds the blocks in place instead of
// rebuilding them from float64.
func restorePrecision(fp *linalg.FactorPair, precision string, sec *linalg.FactorSection, userRows, itemRows int, setPrecision func(types.ScoringPrecision)) error {
	p, err := types.ParseScoringPrecision(precision)
	if err != nil {
		return err
	}
	if err := fp.RestoreF32Section(sec, userRows, itemRows); err != nil {
		return err
	}
	if p != types.PrecisionF64 {
		setPrecision(p)
	}
	return nil
}
