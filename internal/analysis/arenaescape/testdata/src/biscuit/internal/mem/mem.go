// Package mem is a stub of the device-memory arena for analyzer
// testdata.
package mem

// Arena is a byte arena.
type Arena struct{ buf []byte }

// Block is one allocation within an arena.
type Block struct {
	arena *Arena
	off   int
	n     int
}

// Bytes returns the block's arena window; invalid after Free or the
// next Alloc.
func (b Block) Bytes(asOwner string) ([]byte, error) {
	return b.arena.buf[b.off : b.off+b.n], nil
}

// Materialize copies data out of an arena window into owned memory —
// the sanctioned escape hatch for byte windows.
func Materialize(data []byte) []byte {
	return append([]byte(nil), data...)
}
