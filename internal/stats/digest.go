package stats

// Digest is a running 64-bit FNV-1a hash: the determinism witness the
// serving reports (row and dispatch digests) and the telemetry series
// summaries embed, and benchgate compares exactly. The zero Digest is
// the empty hash, so a struct field needs no constructor; it is a plain
// value and allocates nothing.
type Digest struct {
	// x is the FNV state XOR the offset basis, which is what makes the
	// zero value the empty hash.
	x uint64
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// AddRecord folds the bytes of s followed by a 0xff record separator,
// so ("ab","c") and ("a","bc") digest differently.
func (d *Digest) AddRecord(s string) {
	h := d.x ^ fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	h = (h ^ 0xff) * fnvPrime64
	d.x = h ^ fnvOffset64
}

// AddInt64 folds v as eight little-endian bytes.
func (d *Digest) AddInt64(v int64) {
	h := d.x ^ fnvOffset64
	for b := 0; b < 64; b += 8 {
		h = (h ^ uint64(byte(v>>b))) * fnvPrime64
	}
	d.x = h ^ fnvOffset64
}

// Sum64 returns the hash of everything added so far.
func (d Digest) Sum64() uint64 { return d.x ^ fnvOffset64 }
