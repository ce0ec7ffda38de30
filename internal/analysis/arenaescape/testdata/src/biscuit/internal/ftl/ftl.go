// Package ftl is a stub of the flash translation layer for analyzer
// testdata.
package ftl

import "biscuit/internal/nand"

// Proc stands in for *sim.Proc.
type Proc struct{}

// FTL is the translation layer.
type FTL struct{ arr *nand.Array }

// Lend returns the stored bytes of a logical range, the media's own.
func (f *FTL) Lend(off int64, n int) []byte { return f.arr.Lend(nand.PPA{}, int(off), n) }

// ReadThrough streams one logical page through sink; the bytes are the
// media's own stored page, lent for the call.
func (f *FTL) ReadThrough(p *Proc, lpn, offset, length int, ipOverhead int64, sink func([]byte)) error {
	return nil
}

// ReadRangeThrough is ReadThrough over a byte range, one sink call per
// page.
func (f *FTL) ReadRangeThrough(p *Proc, off int64, length int, ipOverhead int64, sink func(pageOff int64, data []byte)) error {
	return nil
}
