// Package core is a stub of the SSDlet runtime for analyzer testdata.
package core

import "biscuit/internal/mem"

// File is a device file handle.
type File struct{}

// Context is the per-SSDlet runtime handle.
type Context struct{}

// Bytes exposes a block's arena window.
func (c *Context) Bytes(b mem.Block) ([]byte, error) { return b.Bytes("user") }

// ScanFile streams file data through sink; data is the media's own
// stored page, lent only for the callback.
func (c *Context) ScanFile(f *File, off int64, n int, sink func(fileOff int64, data []byte)) error {
	return nil
}
