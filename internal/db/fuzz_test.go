package db

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz targets double as corpus-driven unit tests under plain `go test`
// and as real fuzzers under `go test -fuzz`. The invariant in all of
// them: arbitrary bytes may produce errors but never panics, and valid
// encodings round-trip.

func FuzzDecodePage(f *testing.F) {
	sch := NewSchema(Column{"a", TInt}, Column{"b", TString}, Column{"c", TDate}, Column{"d", TDecimal})
	// Seed with a valid page.
	pb := NewPageBuilder(4096, sch)
	for i := 0; i < 20; i++ {
		pb.Add(Row{Int(int64(i)), Str("abc"), DateYMD(1995, 1, 17), Dec(123)})
	}
	valid := pb.Take()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0x00, 0x00})
	f.Add(bytes.Repeat([]byte{0xA5}, 4096))
	// The shared header check's three rejections, and a row decode error
	// past it.
	damaged := func(edit func(page []byte) []byte) []byte {
		return edit(append([]byte(nil), valid...))
	}
	used := int(binary.LittleEndian.Uint16(valid[2:4]))
	f.Add(damaged(func(p []byte) []byte { return p[:used-1] }))                                                  // used > len(page)
	f.Add(damaged(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[2:4], 2); return p }))                 // rows > 0, used < header
	f.Add(damaged(func(p []byte) []byte { binary.LittleEndian.PutUint16(p[2:4], uint16(used-3)); return p }))    // last row truncated
	f.Add(damaged(func(p []byte) []byte { copy(p[4:], bytes.Repeat([]byte{0xFF}, 9)); p[13] = 0x01; return p })) // row length 2^63

	f.Fuzz(func(t *testing.T, page []byte) {
		// Must never panic; errors are fine.
		rows := 0
		derr := DecodePage(page, sch, func(Row) error { rows++; return nil })
		if len(page) < pageHeader {
			return
		}
		// ConvScan shares DecodePage's header check and row decoder, so
		// over the same bytes as a one-page chunk it accepts and rejects
		// the same pages, and finds the same rows.
		s := &ConvScan{T: &Table{Name: "fuzz", Sch: sch, PageSize: len(page)}, chunk: page, cLen: len(page)}
		b := NewRowBatch(PageRowCount(page))
		var cerr error
		for more := true; more && cerr == nil; {
			more, cerr = s.decodeRow(b)
		}
		if (derr == nil) != (cerr == nil) {
			t.Fatalf("DecodePage err = %v, ConvScan err = %v", derr, cerr)
		}
		if derr == nil && b.Len() != rows {
			t.Fatalf("DecodePage found %d rows, ConvScan %d", rows, b.Len())
		}
	})
}

func FuzzRowCodecRoundTrip(f *testing.F) {
	sch := NewSchema(Column{"s", TString}, Column{"n", TInt})
	f.Add("hello", int64(42))
	f.Add("", int64(-1))
	f.Add("\x00\xff", int64(1<<62))
	f.Fuzz(func(t *testing.T, s string, n int64) {
		r := Row{Str(s), Int(n)}
		buf := EncodeRow(nil, sch, r)
		got, used, err := decodeOne(buf, sch)
		if err != nil {
			t.Fatalf("valid encoding failed to decode: %v", err)
		}
		if used != len(buf) {
			t.Fatalf("consumed %d of %d", used, len(buf))
		}
		if got[0].S != s || got[1].I != n {
			t.Fatalf("round trip mismatch: %v", got)
		}
	})
}
