package linalg

import (
	"errors"
	"fmt"

	"ganc/internal/types"
)

// FactorPair holds one latent-factor model's (user, item) matrices in the
// float32 block layout its bulk scores are served from. A model builds one
// from its float64 training rows when it is trained or decoded and never
// writes it again, so a served model's blocks are read-only.
type FactorPair struct {
	UserB, ItemB Block
}

// NewFactorPair packs the float64 factor rows into float32 blocks.
func NewFactorPair(userF, itemF [][]float64) FactorPair {
	return FactorPair{UserB: BlockFrom64(userF), ItemB: BlockFrom64(itemF)}
}

// ItemDots32 fills out[k] with the float32 kernel dot of user row u and item
// row items[k] — the latent term of a factor model's float32 bulk scores — in
// one row-kernel call. An identifier outside the item block scores 0, as a
// zero factor row would: the kernel checks each index against the block's
// rows as it goes, and the model overwrites that 0 with its own fallback where
// the two differ. u must be a row of the user block and out hold len(items)
// elements.
func (p *FactorPair) ItemDots32(u types.UserID, items []types.ItemID, out []float32) {
	pu := p.UserB.Row(int(u))
	p.ItemB.checkRowKernelShape(pu, items, out)
	dotRows32x8(pu, p.ItemB.data, items, out, p.ItemB.rows)
}

// CheckFactors reports why userF and itemF cannot be a factor model's rows:
// a row, of either matrix, whose length differs from the first row's, or
// rows of no values. NewFactorPair and the models' dot products assume
// the shape, so a decoder checks it before building either.
func CheckFactors(userF, itemF [][]float64) error {
	dims := -1
	for side, rows := range [2][][]float64{userF, itemF} {
		for r, row := range rows {
			if dims < 0 {
				dims = len(row)
			}
			if len(row) != dims {
				return fmt.Errorf("%s row %d has %d factors, the first row has %d", [2]string{"user", "item"}[side], r, len(row), dims)
			}
		}
	}
	if dims == 0 {
		return errors.New("factor rows have no values")
	}
	return nil
}
