package store

import (
	"weak"

	"biscuit/internal/core"
)

// memo is a page-verdict memo: it names the pages it has judged.
type memo struct {
	page   weak.Pointer[byte]
	ptr    *byte
	seen   map[weak.Pointer[byte]]bool
	strong map[*byte]bool
}

// weakKey: a weak pointer to a lent page keeps nothing alive, so a memo
// may keep one, as a value or a map key; a strong pointer into the page,
// or the page got back through Value, escapes like the page itself.
func weakKey(c *core.Context, f *core.File, mm *memo) error {
	return c.ScanFile(f, 0, 64, func(off int64, data []byte) {
		mm.page = weak.Make(&data[0])
		w := weak.Make(&data[0])
		mm.seen[w] = true
		mm.strong[&data[0]] = true // want `borrowed scan buffer stored in field strong`
		mm.ptr = &data[0]          // want `borrowed scan buffer stored in field ptr`
		mm.ptr = w.Value()         // want `borrowed scan buffer stored in field ptr`
		mm.ptr = mm.page.Value()   // want `borrowed scan buffer stored in field ptr`
	})
}
