package linalg

import "ganc/internal/types"

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
