package ftl

import (
	"slices"

	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

// newEagerFTL is New with every l2p segment and every block's reverse
// map made at birth, as both tables were before they were made on
// demand: the reference that the lazy FTL must not be told apart from.
func newEagerFTL(env *sim.Env, arr *nand.Array, cfg Config) *FTL {
	f := New(env, arr, cfg)
	for i := range f.l2p {
		f.l2p[i] = slices.Repeat([]int32{-1}, l2pSegPages)
	}
	for _, d := range f.dies {
		for b := range d.blockMeta {
			d.blockMeta[b].lpns = slices.Repeat([]int32{-1}, arr.Config().PagesPerBlock)
		}
	}
	return f
}
