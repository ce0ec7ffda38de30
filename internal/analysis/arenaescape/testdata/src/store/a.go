// Package store exercises the arena-escape check.
package store

import (
	"biscuit/internal/core"
	"biscuit/internal/db"
	"biscuit/internal/ftl"
	"biscuit/internal/mem"

	"retain"
)

type cache struct {
	last  db.Row
	rows  []db.Row
	chunk []byte
}

var latest db.Row

func fieldStore(c *cache, b *db.RowBatch) {
	c.last = b.Row(0) // want `arena-backed value stored in field last`
	c.last = b.Row(0).Clone()
}

func globalStore(b *db.RowBatch) {
	latest = b.Row(1) // want `arena-backed value stored in package variable latest`
}

func appendField(c *cache, b *db.RowBatch) {
	for i := 0; i < b.Len(); i++ {
		c.rows = append(c.rows, b.Row(i)) // want `arena-backed value stored in field rows`
	}
	c.rows = append(c.rows, b.Row(0).Clone())
}

func send(ch chan []byte, blk mem.Block) error {
	data, err := blk.Bytes("user")
	if err != nil {
		return err
	}
	ch <- data // want `arena-backed value sent on a channel`
	ch <- mem.Materialize(data)
	return nil
}

// crossSource: the taint arrives through retain.First's source fact;
// this package never sees retain's bodies.
func crossSource(c *cache, b *db.RowBatch) {
	c.last = retain.First(b) // want `arena-backed value stored in field last`
}

// crossEscape: retain.Keep's escape fact flags the call site.
func crossEscape(b *db.RowBatch) {
	retain.Keep(b.Row(2)) // want `arena-backed value passed to retain.Keep, which retains its argument 0`
	retain.Keep(b.Row(2).Clone())
}

// borrow: the scan callback's data buffer must not outlive the
// callback — not even into a local of the enclosing function.
func borrow(c *core.Context, f *core.File, cch *cache) error {
	var stash []byte
	err := c.ScanFile(f, 0, 64, func(off int64, data []byte) {
		stash = data // want `borrowed scan buffer escapes its sink callback into stash`
		stash = append([]byte(nil), data...)
		cch.chunk = data // want `borrowed scan buffer stored in field chunk`
	})
	_ = stash
	return err
}

// borrowPage: below ScanFile the lent bytes are the media's own stored
// page; the FTL's page and range forms lend them the same way.
func borrowPage(f *ftl.FTL, p *ftl.Proc, cch *cache) {
	var hit []byte
	_ = f.ReadThrough(p, 0, 0, 64, 0, func(data []byte) {
		cch.chunk = data // want `borrowed scan buffer stored in field chunk`
	})
	_ = f.ReadRangeThrough(p, 0, 64, 0, func(pageOff int64, data []byte) {
		hit = data // want `borrowed scan buffer escapes its sink callback into hit`
		hit = append([]byte(nil), data...)
	})
	_ = hit
}

func spawn(b *db.RowBatch) {
	r := b.Row(0)
	go func() { // want `arena-backed value captured by goroutine`
		latest = r.Clone()
	}()
}

// rescope: AppendRow is the documented ownership-transfer point.
func rescope(dst *db.RowBatch, src *db.RowBatch) {
	dst.AppendRow(src.Row(0))
}

func waived(c *cache, b *db.RowBatch) {
	//biscuitvet:ignore arenaescape: replay cache resets in lockstep with the batch
	c.last = b.Row(0)
}
