package db

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Page format (PageSize bytes, matching the device page so one DB page
// is one media page, like InnoDB's 16 KiB pages on the paper's system):
//
//	[0:2]  uint16 row count
//	[2:4]  uint16 used bytes (including header)
//	[4:]   rows, each: varint byteLen | encoded cells
//
// Cells: TInt/TDecimal as zigzag varints; TDate as 10 ASCII bytes
// "YYYY-MM-DD" (so the hardware matcher can key on date literals);
// TString as varint length + raw bytes (so string literals appear
// verbatim in the page — again matcher-friendly).
const pageHeader = 4

// EncodeRow appends the encoding of r (described by sch) to dst.
func EncodeRow(dst []byte, sch *Schema, r Row) []byte {
	body := encodeCells(nil, sch, r)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

func encodeCells(dst []byte, sch *Schema, r Row) []byte {
	if len(r) != len(sch.Cols) {
		panic(fmt.Sprintf("db: row arity %d vs schema %d", len(r), len(sch.Cols)))
	}
	for i, c := range sch.Cols {
		v := r[i]
		if v.T != c.T {
			panic(fmt.Sprintf("db: column %s is %v, got %v", c.Name, c.T, v.T))
		}
		switch c.T {
		case TInt, TDecimal:
			dst = binary.AppendVarint(dst, v.I)
		case TDate:
			dst = appendDate(dst, v.I)
		case TString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		}
	}
	return dst
}

// dateShaped is the shape check of a stored date — ten bytes, dashes at
// 4 and 7 — the one every date cell passes, parsed or skipped; badDate is
// the error of a cell that fails it.
func dateShaped(b []byte) bool { return len(b) == 10 && b[4] == '-' && b[7] == '-' }

func badDate(b []byte) error { return fmt.Errorf("db: bad date %q", b) }

// parseDate converts ASCII YYYY-MM-DD to a date value without
// allocating.
func parseDate(b []byte) (Value, error) {
	if !dateShaped(b) {
		return Value{}, badDate(b)
	}
	num := func(s []byte) int {
		n := 0
		for _, c := range s {
			n = n*10 + int(c-'0')
		}
		return n
	}
	return DateYMD(num(b[0:4]), num(b[5:7]), num(b[8:10])), nil
}

// PageBuilder packs rows into fixed-size pages.
type PageBuilder struct {
	size int
	sch  *Schema
	buf  []byte
	rows int
}

// NewPageBuilder creates a builder for pages of size bytes.
func NewPageBuilder(size int, sch *Schema) *PageBuilder {
	pb := &PageBuilder{size: size, sch: sch}
	pb.reset()
	return pb
}

func (pb *PageBuilder) reset() {
	pb.buf = make([]byte, pageHeader, pb.size)
	pb.rows = 0
}

// Add appends a row; it reports false when the row does not fit (the
// caller should Flush and retry).
func (pb *PageBuilder) Add(r Row) bool {
	encoded := EncodeRow(nil, pb.sch, r)
	if len(pb.buf)+len(encoded) > pb.size {
		if pb.rows == 0 {
			panic(fmt.Sprintf("db: single row of %d bytes exceeds page size %d", len(encoded), pb.size))
		}
		return false
	}
	pb.buf = append(pb.buf, encoded...)
	pb.rows++
	return true
}

// Rows returns the number of rows buffered in the open page.
func (pb *PageBuilder) Rows() int { return pb.rows }

// Take finalizes the open page, returning a full-size page buffer, and
// resets the builder. It returns nil if the page is empty.
func (pb *PageBuilder) Take() []byte {
	if pb.rows == 0 {
		return nil
	}
	binary.LittleEndian.PutUint16(pb.buf[0:2], uint16(pb.rows))
	binary.LittleEndian.PutUint16(pb.buf[2:4], uint16(len(pb.buf)))
	page := pb.buf[:cap(pb.buf)]
	for i := len(pb.buf); i < len(page); i++ {
		page[i] = 0
	}
	pb.reset()
	return page
}

// pageExtent validates a page header and returns the row count and the
// used bytes (header included) it declares. It is the one header check:
// every page decode — decodePage on the device and (as DecodePage) in
// index builds, ConvScan on the host — goes through it, so corrupt
// media is rejected the same way everywhere.
func pageExtent(page []byte) (rows, used int, err error) {
	if len(page) < pageHeader {
		return 0, 0, fmt.Errorf("db: short page")
	}
	rows = int(binary.LittleEndian.Uint16(page[0:2]))
	used = int(binary.LittleEndian.Uint16(page[2:4]))
	if used > len(page) {
		return 0, 0, fmt.Errorf("db: page used %d > size %d", used, len(page))
	}
	if rows > 0 && rows > used-pageHeader { // a row is at least its length byte
		return 0, 0, fmt.Errorf("db: page claims %d rows in %d bytes", rows, used)
	}
	return rows, used, nil
}

// decodePage is the one page decode: it resets b and decodes every row
// of the page buffer into it, raising b's capacity when the page holds
// more rows than b.Cap(). The rows live in b's arenas until its next
// Reset. A corrupt page is an error with n = 0: nothing of it is to be read.
func (b *RowBatch) decodePage(page []byte, sch *Schema) (n int, err error) {
	b.Reset()
	n, used, err := pageExtent(page)
	if err != nil || n == 0 {
		return 0, err
	}
	b.capacity = max(b.capacity, n)
	// Size the batch's arenas to the page up front: its string bytes
	// cannot exceed the used bytes, and every row has the schema's
	// string cells.
	strCols := 0
	for _, c := range sch.Cols {
		if c.T == TString {
			strCols++
		}
	}
	b.str = slices.Grow(b.str, used-pageHeader)
	b.fix = slices.Grow(b.fix, n*strCols)
	at := pageHeader
	for i := 0; i < n; i++ {
		k, err := b.decodeRow(page[at:used], sch, nil)
		if err != nil {
			return 0, fmt.Errorf("db: row %d: %w", i, err)
		}
		at += k
	}
	b.FinishStrings()
	return n, nil
}

// DecodePage invokes fn for every row in the page buffer. The rows are
// decoded into a batch private to this call that is never Reset, so fn
// may retain them (they share the page's arenas, not the caller's).
// A corrupt page is reported before fn sees any of its rows.
func DecodePage(page []byte, sch *Schema, fn func(Row) error) error {
	b := new(RowBatch)
	n, err := b.decodePage(page, sch)
	for i := 0; i < n && err == nil; i++ {
		err = fn(b.Row(i))
	}
	return err
}

// PageRowCount returns the row count header of a page.
func PageRowCount(page []byte) int {
	if len(page) < pageHeader {
		return 0
	}
	return int(binary.LittleEndian.Uint16(page[0:2]))
}
