// Package nand is a stub of the flash array for analyzer testdata.
package nand

// PPA is a physical page address.
type PPA struct{}

// Array is the flash array.
type Array struct{ page []byte }

// Lend returns the media's own stored bytes of one page.
func (a *Array) Lend(addr PPA, offset, n int) []byte { return a.page[offset : offset+n] }
