package stats

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestDigestIsFNV1a pins Digest to the standard library's FNV-1a over
// the same byte stream: every committed row, dispatch and series digest
// in baselines/ depends on it.
func TestDigestIsFNV1a(t *testing.T) {
	var d Digest
	ref := fnv.New64a()
	if d.Sum64() != ref.Sum64() {
		t.Fatalf("zero Digest = %d, want the empty FNV-1a hash %d", d.Sum64(), ref.Sum64())
	}
	for _, s := range []string{"acme:0", "", "error:ftl: uncorrectable", "\xff"} {
		d.AddRecord(s)
		ref.Write([]byte(s))
		ref.Write([]byte{0xff})
	}
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 62)} {
		d.AddInt64(v)
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], uint64(v))
		ref.Write(le[:])
	}
	if d.Sum64() != ref.Sum64() {
		t.Fatalf("Digest = %d, hash/fnv = %d", d.Sum64(), ref.Sum64())
	}
	var ab, a Digest
	ab.AddRecord("ab")
	ab.AddRecord("c")
	a.AddRecord("a")
	a.AddRecord("bc")
	if ab.Sum64() == a.Sum64() {
		t.Fatalf("record separator lost: (ab,c) and (a,bc) collide")
	}
}
