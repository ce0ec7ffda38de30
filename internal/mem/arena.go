// Package mem implements the device-side dynamic memory allocator of the
// Biscuit runtime (paper §IV-B), modeled on Doug Lea's allocator: an
// in-band boundary-tag heap with segregated free-list bins, splitting and
// bidirectional coalescing.
//
// The runtime keeps two allocators over distinct arenas — a *system*
// allocator for runtime objects and a *user* allocator for SSDlet
// allocations — and the arenas carry owner tags so the isolation policy
// (SSDlets must not touch system memory; the target SSD has an MPU but
// no MMU) can be checked at run time.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Chunk layout (all offsets within the arena byte slice):
//
//	[ header:8 | payload...            | footer:8 ]  in-use chunk
//	[ header:8 | next:8 | prev:8 | ... | footer:8 ]  free chunk
//
// header and footer both hold chunkSize | inuseBit, so coalescing can
// inspect the neighbor below via its footer without ambiguity. Sizes are
// multiples of align.
const (
	headerSize = 8
	align      = 16
	minChunk   = 32 // header + free-list links + footer
	inuseBit   = 1
)

// Common allocator errors.
var (
	ErrOutOfMemory   = errors.New("mem: out of memory")
	ErrBadFree       = errors.New("mem: free of invalid or already-free block")
	ErrForeignBlock  = errors.New("mem: block belongs to a different arena")
	ErrAccessDenied  = errors.New("mem: arena access denied for owner")
	ErrSizeTooLarge  = errors.New("mem: request exceeds arena")
	ErrInvalidConfig = errors.New("mem: arena size too small")
)

const numBins = 64

// Arena is a contiguous heap managed with boundary tags.
type Arena struct {
	name  string
	owner string // access-control tag ("" = unrestricted)
	buf   []byte
	bins  [numBins]int // offset of first free chunk per bin, -1 empty

	allocated int // current payload bytes outstanding
	peak      int
	nAlloc    int64
	nFree     int64
}

// NewArena creates an arena of size bytes named name with access owner
// tag owner.
func NewArena(name, owner string, size int) (*Arena, error) {
	size = size &^ (align - 1)
	if size < minChunk+2*headerSize {
		return nil, ErrInvalidConfig
	}
	a := &Arena{name: name, owner: owner, buf: make([]byte, size)}
	for i := range a.bins {
		a.bins[i] = -1
	}
	// One big free chunk spanning the arena.
	a.setHeader(0, size, false)
	a.setFooter(0, size, false)
	a.binInsert(0, size)
	return a, nil
}

// Name returns the arena name.
func (a *Arena) Name() string { return a.name }

// Size returns the arena capacity in bytes.
func (a *Arena) Size() int { return len(a.buf) }

// Allocated returns outstanding payload bytes.
func (a *Arena) Allocated() int { return a.allocated }

// Peak returns the maximum outstanding payload bytes seen.
func (a *Arena) Peak() int { return a.peak }

// Counts returns cumulative alloc and free counts.
func (a *Arena) Counts() (allocs, frees int64) { return a.nAlloc, a.nFree }

func (a *Arena) word(off int) uint64       { return binary.LittleEndian.Uint64(a.buf[off:]) }
func (a *Arena) setWord(off int, v uint64) { binary.LittleEndian.PutUint64(a.buf[off:], v) }

func (a *Arena) setHeader(off, size int, inuse bool) {
	v := uint64(size)
	if inuse {
		v |= inuseBit
	}
	a.setWord(off, v)
}

func (a *Arena) setFooter(off, size int, inuse bool) {
	v := uint64(size)
	if inuse {
		v |= inuseBit
	}
	a.setWord(off+size-headerSize, v)
}

func (a *Arena) chunkSize(off int) int { return int(a.word(off) &^ inuseBit) }
func (a *Arena) inuse(off int) bool    { return a.word(off)&inuseBit != 0 }

// binFor maps a chunk size to its bin: exact 16-byte classes up to 512,
// then logarithmic classes.
func binFor(size int) int {
	if size <= 512 {
		return size/align - 2 // 32 -> 0, 48 -> 1, ... 512 -> 30
	}
	b := 31
	for s := 1024; b < numBins-1; s <<= 1 {
		if size < s {
			return b
		}
		b++
	}
	return numBins - 1
}

func (a *Arena) binInsert(off, size int) {
	b := binFor(size)
	head := a.bins[b]
	a.setWord(off+8, uint64(head)+1) // next (+1 so 0 means nil... use offset+1 encoding)
	a.setWord(off+16, 0)             // prev = nil
	if head >= 0 {
		a.setWord(head+16, uint64(off)+1)
	}
	a.bins[b] = off
}

func (a *Arena) binRemove(off, size int) {
	b := binFor(size)
	next := int(a.word(off+8)) - 1
	prev := int(a.word(off+16)) - 1
	if prev >= 0 {
		a.setWord(prev+8, uint64(next)+1)
	} else {
		a.bins[b] = next
	}
	if next >= 0 {
		a.setWord(next+16, uint64(prev)+1)
	}
}

// Block is an allocation handle: a window into its arena.
type Block struct {
	arena *Arena
	off   int // chunk offset (header)
	n     int // requested payload size
}

// Len returns the requested payload size.
func (b Block) Len() int { return b.n }

// Bytes returns the payload as a slice. The asOwner tag must match the
// arena's owner (or the arena must be unrestricted); this models the
// MPU-based isolation between system and user memory.
func (b Block) Bytes(asOwner string) ([]byte, error) {
	if b.arena == nil {
		return nil, ErrBadFree
	}
	if b.arena.owner != "" && b.arena.owner != asOwner {
		return nil, fmt.Errorf("%w: %q accessing arena %q owned by %q", ErrAccessDenied, asOwner, b.arena.name, b.arena.owner)
	}
	return b.arena.buf[b.off+headerSize : b.off+headerSize+b.n], nil
}

// Materialize copies an arena-backed byte window into freshly allocated
// host memory. It is the sanctioned escape hatch recognized by the
// arenaescape vet check: a materialized slice no longer aliases arena
// storage, so it may be stored, sent on channels, or captured by
// goroutines. Use it at the boundary where data must outlive the arena
// window it was read from.
func Materialize(data []byte) []byte {
	return append([]byte(nil), data...)
}

// Alloc allocates n payload bytes (n > 0) using best-effort first fit in
// the segregated bins, splitting oversized chunks.
func (a *Arena) Alloc(n int) (Block, error) {
	if n <= 0 {
		return Block{}, fmt.Errorf("mem: invalid allocation size %d", n)
	}
	need := n + 2*headerSize
	if r := need % align; r != 0 {
		need += align - r
	}
	if need < minChunk {
		need = minChunk
	}
	if need > len(a.buf) {
		return Block{}, ErrSizeTooLarge
	}
	for b := binFor(need); b < numBins; b++ {
		for off := a.bins[b]; off >= 0; off = int(a.word(off+8)) - 1 {
			size := a.chunkSize(off)
			if size < need {
				continue
			}
			a.binRemove(off, size)
			if size-need >= minChunk {
				// Split: tail remains free.
				tail := off + need
				tsize := size - need
				a.setHeader(tail, tsize, false)
				a.setFooter(tail, tsize, false)
				a.binInsert(tail, tsize)
				size = need
			}
			a.setHeader(off, size, true)
			a.setFooter(off, size, true)
			a.allocated += n
			if a.allocated > a.peak {
				a.peak = a.allocated
			}
			a.nAlloc++
			return Block{arena: a, off: off, n: n}, nil
		}
	}
	return Block{}, fmt.Errorf("%w: %d bytes requested, %d allocated of %d (%s)", ErrOutOfMemory, n, a.allocated, len(a.buf), a.name)
}

// Free returns a block to the arena, coalescing with free neighbors.
func (a *Arena) Free(b Block) error {
	if b.arena != a {
		return ErrForeignBlock
	}
	off := b.off
	if off < 0 || off+minChunk > len(a.buf) || !a.inuse(off) {
		return ErrBadFree
	}
	size := a.chunkSize(off)
	a.allocated -= b.n
	a.nFree++

	// Coalesce with next chunk.
	if next := off + size; next < len(a.buf) && !a.inuse(next) {
		ns := a.chunkSize(next)
		a.binRemove(next, ns)
		size += ns
	}
	// Coalesce with previous chunk (via its footer).
	if off > 0 {
		fv := a.word(off - headerSize)
		if fv&inuseBit == 0 {
			psize := int(fv)
			prev := off - psize
			a.binRemove(prev, psize)
			off = prev
			size += psize
		}
	}
	a.setHeader(off, size, false)
	a.setFooter(off, size, false)
	a.binInsert(off, size)
	return nil
}

// CheckInvariants walks the heap verifying chunk structure; it returns an
// error describing the first inconsistency. Used by tests.
func (a *Arena) CheckInvariants() error {
	off, free := 0, 0
	prevFree := false
	for off < len(a.buf) {
		size := a.chunkSize(off)
		if size < minChunk || off+size > len(a.buf) || size%align != 0 {
			return fmt.Errorf("mem: bad chunk at %d size %d", off, size)
		}
		wantFooter := uint64(size)
		if a.inuse(off) {
			wantFooter |= inuseBit
			prevFree = false
		} else {
			if prevFree {
				return fmt.Errorf("mem: uncoalesced free chunks at %d", off)
			}
			free += size
			prevFree = true
		}
		if a.word(off+size-headerSize) != wantFooter {
			return fmt.Errorf("mem: footer mismatch at %d", off)
		}
		off += size
	}
	if off != len(a.buf) {
		return fmt.Errorf("mem: heap walk ended at %d of %d", off, len(a.buf))
	}
	return nil
}

// FreeBytes returns the total bytes in free chunks (including headers).
func (a *Arena) FreeBytes() int {
	total := 0
	for off := 0; off < len(a.buf); off += a.chunkSize(off) {
		if !a.inuse(off) {
			total += a.chunkSize(off)
		}
	}
	return total
}
