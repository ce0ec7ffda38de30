// Package db is a stub of the execution engine's batch types, just
// deep enough for analyzer testdata to import it by path.
package db

// Value is one cell; plain value, safe to copy anywhere.
type Value struct {
	T int
	I int64
	S string
}

// Row is one tuple; rows carved from a batch alias its arena.
type Row []Value

// Clone copies a row out of its arena.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// RowBatch is a reusable slab of rows.
type RowBatch struct {
	rows []Row
	n    int
}

// Row returns row i; valid only until the next Reset.
func (b *RowBatch) Row(i int) Row { return b.rows[i] }

// NewRow carves a fresh row from the batch arena.
func (b *RowBatch) NewRow(ncols int) Row { return make(Row, ncols) }

// AppendRow adds a caller-owned row by reference (sanctioned rescope).
func (b *RowBatch) AppendRow(r Row) { b.rows = append(b.rows, r); b.n++ }

// Reset empties the batch; previously carved rows become invalid.
func (b *RowBatch) Reset() { b.n = 0 }

// Len is the live row count.
func (b *RowBatch) Len() int { return b.n }
