package db

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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

// EncodeRow appends the encoding of r (described by sch) to dst. The
// body is sized first, so the length prefix and the cells go straight
// into dst with no intermediate buffer. A date no cell can store (see
// storable) panics, as a cell of the wrong type does.
func EncodeRow(dst []byte, sch *Schema, r Row) []byte {
	n, ok := cellsLen(sch, r)
	if !ok {
		panic(storable(sch, r).Error())
	}
	return appendRow(dst, sch, r, n)
}

// appendRow is EncodeRow with the body length n of a storable r already
// known.
func appendRow(dst []byte, sch *Schema, r Row, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	for i, c := range sch.Cols {
		v := r[i]
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

// cellsLen is the encoded length of r's cells — the row body, without
// its length prefix — after checking r against sch. ok is false when r
// holds a date no cell can store (see storable).
func cellsLen(sch *Schema, r Row) (n int, ok bool) {
	if len(r) != len(sch.Cols) {
		panic(fmt.Sprintf("db: row arity %d vs schema %d", len(r), len(sch.Cols)))
	}
	ok = true
	for i, c := range sch.Cols {
		v := r[i]
		if v.T != c.T {
			panic(fmt.Sprintf("db: column %s is %v, got %v", c.Name, c.T, v.T))
		}
		switch c.T {
		case TInt, TDecimal:
			n += varintLen(v.I)
		case TDate:
			n += 10
			ok = ok && firstDay <= v.I && v.I <= lastDay
		case TString:
			n += uvarintLen(uint64(len(v.S))) + len(v.S)
		}
	}
	return n, ok
}

// storable reports, as an error naming the column, the first date of r
// that no cell can store: a date cell is ten ASCII bytes, so its year is
// 0000–9999. r has the arity and types of sch.
func storable(sch *Schema, r Row) error {
	for i, c := range sch.Cols {
		if d := r[i].I; c.T == TDate && (d < firstDay || d > lastDay) {
			return fmt.Errorf("db: column %s: date %s outside years 0000-9999", c.Name, r[i].DateString())
		}
	}
	return nil
}

// uvarintLen is the length of binary.AppendUvarint(nil, x).
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length of binary.AppendVarint(nil, x): the zigzag
// form's uvarint length.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// dateShaped is the shape check of a stored date — ten bytes, dashes at
// 4 and 7 — the one every date cell passes, parsed or skipped; badDate is
// the error of a cell that fails it.
func dateShaped(b []byte) bool { return len(b) == 10 && b[4] == '-' && b[7] == '-' }

func badDate(b []byte) error { return fmt.Errorf("db: bad date %q", b) }

// parseDate converts ASCII YYYY-MM-DD to a date value without
// allocating. Each byte counts as c-'0' in byte arithmetic, so a
// non-digit wraps to 10–255 and the result is DateYMD of whatever
// numbers the bytes spell. A month of 1–12 takes DateYMD's own
// arithmetic in straight lines: the year is non-negative, so adding one
// 400-year era keeps the March-based year non-negative too, and no floor
// division is needed. Any other month goes through DateYMD.
func parseDate(b []byte) (Value, error) {
	if !dateShaped(b) {
		return Value{}, badDate(b)
	}
	y := uint(b[0]-'0')*1000 + uint(b[1]-'0')*100 + uint(b[2]-'0')*10 + uint(b[3]-'0')
	m := uint(b[5]-'0')*10 + uint(b[6]-'0')
	d := uint(b[8]-'0')*10 + uint(b[9]-'0')
	if m-1 >= 12 {
		return DateYMD(int(y), int(m), int(d)), nil
	}
	y += 400
	if m <= 2 {
		y-- // January and February close the March-based year before
	}
	days := y*365 + y/4 - y/100 + y/400 + marchDays[m] + d
	return Value{T: TDate, I: int64(days) - (719468 + 146097 + 1)}, nil
}

// marchDays[m] is DateYMD's (153·mp+2)/5: the days from March 1 to the
// first of month m.
var marchDays = [13]uint{0, 306, 337, 0, 31, 61, 92, 122, 153, 184, 214, 245, 275}

// PageBuilder packs rows into fixed-size pages. It owns one page
// buffer for its whole life: rows encode straight into it and Take
// lends it out.
type PageBuilder struct {
	size int
	sch  *Schema
	buf  []byte
	rows int
}

// NewPageBuilder creates a builder for pages of size bytes.
func NewPageBuilder(size int, sch *Schema) *PageBuilder {
	return &PageBuilder{size: size, sch: sch, buf: make([]byte, pageHeader, size)}
}

func (pb *PageBuilder) reset() {
	pb.buf = pb.buf[:pageHeader]
	pb.rows = 0
}

// Add appends a row; it reports false, leaving the page as it was, when
// the row does not fit or holds a date no cell can store (see storable).
// The caller should Take the page and retry; a row that does not fit an
// empty page fits no page.
func (pb *PageBuilder) Add(r Row) bool {
	n, ok := cellsLen(pb.sch, r)
	if !ok || len(pb.buf)+uvarintLen(uint64(n))+n > pb.size {
		return false
	}
	pb.buf = appendRow(pb.buf, pb.sch, r, n)
	pb.rows++
	return true
}

// Rows returns the number of rows buffered in the open page.
func (pb *PageBuilder) Rows() int { return pb.rows }

// Take finalizes the open page and resets the builder. It returns the
// builder's own full-size buffer, valid until the next Add (copy it to
// keep it), or nil if the page is empty.
func (pb *PageBuilder) Take() []byte {
	if pb.rows == 0 {
		return nil
	}
	binary.LittleEndian.PutUint16(pb.buf[0:2], uint16(pb.rows))
	binary.LittleEndian.PutUint16(pb.buf[2:4], uint16(len(pb.buf)))
	page := pb.buf[:cap(pb.buf)]
	// The buffer is reused page after page, so past the used bytes it
	// still holds the previous page's rows: zeroing the tail keeps every
	// page's bytes a function of its own rows alone.
	for i := len(pb.buf); i < len(page); i++ {
		page[i] = 0
	}
	pb.reset()
	return page
}

// pageExtent validates a page header and returns the row count and the
// used bytes (header included) it declares. It is the one header check:
// every page decode — the device scan's page filter, DecodePage in index
// builds, ConvScan on the host — goes through it, so corrupt media is
// rejected the same way everywhere.
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

// DecodePage invokes fn for every row in the page buffer. The rows are
// decoded into a batch private to this call that is never Reset, so fn
// may retain them (they share the page's arenas, not the caller's).
// A corrupt page is reported before fn sees any of its rows.
func DecodePage(page []byte, sch *Schema, fn func(Row) error) error {
	n, used, err := pageExtent(page)
	if err != nil || n == 0 {
		return err
	}
	// Size the batch's arenas to the page up front: its string bytes
	// cannot exceed the used bytes, and every row has the schema's
	// string cells.
	strCols := 0
	for _, c := range sch.Cols {
		if c.T == TString {
			strCols++
		}
	}
	b := &RowBatch{capacity: n, str: make([]byte, 0, used-pageHeader), fix: make([]strFix, 0, n*strCols)}
	at := pageHeader
	for i := 0; i < n; i++ {
		k, err := b.decodeRow(page[at:used], "", sch, nil)
		if err != nil {
			return fmt.Errorf("db: row %d: %w", i, err)
		}
		at += k
	}
	b.FinishStrings()
	for i := 0; i < n; i++ {
		if err := fn(b.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// PageRowCount returns the row count header of a page.
func PageRowCount(page []byte) int {
	if len(page) < pageHeader {
		return 0
	}
	return int(binary.LittleEndian.Uint16(page[0:2]))
}
