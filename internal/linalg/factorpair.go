package linalg

import (
	"fmt"
	"sync"

	"ganc/internal/types"
)

// FactorPair holds one latent-factor model's (user, item) matrices in the
// float32 block layout, built lazily from the float64 training rows. Models
// embed one and call EnsureF32 from SetPrecision; blocks already populated
// (e.g. decoded straight from a snapshot's f32 section) are kept as-is, so
// loading never round-trips through float64.
//
// EnsureF32 is not safe for concurrent use with itself or with scoring —
// precision is fixed at pipeline assembly or snapshot load, before a model
// starts serving.
type FactorPair struct {
	UserB, ItemB Block
}

// EnsureF32 builds the float32 blocks from the float64 rows if absent.
func (p *FactorPair) EnsureF32(userF, itemF [][]float64) {
	if p.UserB.Rows() == 0 && len(userF) > 0 {
		p.UserB = BlockFrom64(userF)
	}
	if p.ItemB.Rows() == 0 && len(itemF) > 0 {
		p.ItemB = BlockFrom64(itemF)
	}
}

// ItemDots32 fills out[k] with the float32 kernel dot of user row u and item
// row items[k] — the latent term of a factor model's float32 bulk scores. The
// row kernel runs once over each stretch of identifiers inside the item
// block; an identifier outside it scores 0, as a zero factor row would, and
// the model overwrites that with its own fallback where the two differ. u
// must be a row of the user block and out hold len(items) elements.
func (p *FactorPair) ItemDots32(u types.UserID, items []types.ItemID, out []float32) {
	pu := p.UserB.Row(int(u))
	p.ItemB.checkRowKernelShape(pu, items, out)
	for len(items) > 0 {
		n := p.ItemB.firstOutside(items)
		dotRows32x8(pu, p.ItemB.data, items[:n], out[:n])
		if n == len(items) {
			return
		}
		out[n] = 0
		items, out = items[n+1:], out[n+1:]
	}
}

// FactorSection is the flat, gob-friendly form of a FactorPair's float32
// blocks — the versioned model snapshots' "f32 factor section" (DESIGN.md
// §12).
type FactorSection struct {
	Dims int
	User []float32
	Item []float32
}

// F32Section returns the pair's float32 blocks in snapshot form, or nil when
// no blocks were built (the float64-only default tier).
func (p *FactorPair) F32Section() *FactorSection {
	if p.UserB.Rows() == 0 || p.ItemB.Rows() == 0 {
		return nil
	}
	return &FactorSection{Dims: p.UserB.Dims(), User: p.UserB.Data(), Item: p.ItemB.Data()}
}

// RestoreF32Section installs a decoded snapshot section as the pair's
// float32 blocks, validating the flat lengths against the expected row
// counts. A nil or empty section is a no-op (snapshots from before the
// tiered path, or models saved at the float64 tier).
func (p *FactorPair) RestoreF32Section(s *FactorSection, userRows, itemRows int) error {
	if s == nil || (s.Dims == 0 && len(s.User) == 0 && len(s.Item) == 0) {
		return nil
	}
	if s.Dims <= 0 || len(s.User) != userRows*s.Dims || len(s.Item) != itemRows*s.Dims {
		return fmt.Errorf("linalg: f32 factor section (%d user + %d item values at dim %d) does not cover %d user and %d item rows",
			len(s.User), len(s.Item), s.Dims, userRows, itemRows)
	}
	p.UserB = BlockFromData(userRows, s.Dims, s.User)
	p.ItemB = BlockFromData(itemRows, s.Dims, s.Item)
	return nil
}

// widenBufs recycles Widen32's float32 staging buffers.
var widenBufs = sync.Pool{New: func() interface{} { return new([]float32) }}

// Widen32 fills out with the float64 widening of the len(out) float32 scores
// that score32 writes into the buffer it is handed. It is how a factor model
// at a reduced tier serves its float64 bulk contract from its float32 path;
// the staging buffer comes from a pool, so the call allocates nothing once
// warm.
func Widen32(out []float64, score32 func(buf []float32)) {
	bp := widenBufs.Get().(*[]float32)
	if cap(*bp) < len(out) {
		*bp = make([]float32, len(out))
	}
	buf := (*bp)[:len(out)]
	score32(buf)
	for k, v := range buf {
		out[k] = float64(v)
	}
	widenBufs.Put(bp)
}
