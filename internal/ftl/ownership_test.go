package ftl

import (
	"bytes"
	"math/rand"
	"testing"

	"biscuit/internal/sim"
)

// TestHandedOverPagesStayIntact is the page-ownership law under load:
// nand.Program keeps the page it is handed, so a writer that touched a
// page after programming it would change bytes on media. Four writer
// processes, each reusing one buffer, issue a seeded mix of full-page
// and partial writes and overwrites to their own logical pages, several
// superblocks' worth, while GC relocates and a fifth process seals
// stripes early. Afterwards every live page reads back what was last
// written, and every sealed stripe's parity page is the XOR of its
// members' bytes on media.
func TestHandedOverPagesStayIntact(t *testing.T) {
	e, f := newFTL(t)
	if f.StripeWidth() == 0 {
		t.Fatal("RAIN is off on the test geometry")
	}
	ps := f.PageSize()
	const writers, lpnsEach = 4, 40
	writesEach := 2 * f.Array().Config().TotalPages() / writers
	ref := make(map[int][]byte)
	running := writers
	for w := range writers {
		e.Spawn("writer", func(p *sim.Proc) {
			defer func() { running-- }()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			buf := make([]byte, ps)
			for range writesEach {
				lpn := w + writers*rng.Intn(lpnsEach)
				off, n := 0, ps
				if rng.Intn(3) == 0 {
					off = rng.Intn(ps)
					n = 1 + rng.Intn(ps-off)
				}
				rng.Read(buf[:n])
				if err := f.Write(p, lpn, off, buf[:n]); err != nil {
					t.Error(err)
					return
				}
				if ref[lpn] == nil {
					ref[lpn] = make([]byte, ps)
				}
				copy(ref[lpn][off:], buf[:n])
			}
		})
	}
	// The sealer closes open stripes early while the writers run, then
	// once more and checks the reads.
	e.Spawn("sealer", func(p *sim.Proc) {
		for running > 0 {
			p.Sleep(3 * sim.Millisecond)
			f.SealStripe(p)
		}
		f.SealStripe(p)
		for lpn, want := range ref {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("lpn %d reads back different bytes from its last write (err %v)", lpn, err)
			}
		}
	})
	e.Run()
	checkMaps(t, f)

	if rounds, moves := f.GCStats(); rounds == 0 || moves == 0 {
		t.Fatalf("GC did not relocate anything (rounds %d, moves %d)", rounds, moves)
	}
	sealed := 0
	got, member := make([]byte, ps), make([]byte, ps)
	for sid, st := range f.stripes {
		if st == nil {
			continue
		}
		sealed++
		f.arr.Peek(f.ppa(st.parity), 0, got)
		want := make([]byte, ps)
		for _, m := range st.members {
			f.arr.Peek(f.ppa(m), 0, member)
			xorInto(want, member)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("stripe %d: parity page %v is not the XOR of its %d members", sid, f.ppa(st.parity), len(st.members))
		}
	}
	if sealed == 0 {
		t.Fatal("no sealed stripe to check")
	}
}
