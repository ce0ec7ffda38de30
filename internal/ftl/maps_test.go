package ftl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

// checkMaps fails t when f's mapping state breaks an invariant.
func checkMaps(t testing.TB, f *FTL) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// lawNAND spans two l2p segments with room to spare for a dead die,
// small enough that a script reaches GC within a few dozen bursts.
func lawNAND() nand.Config {
	return nand.Config{Channels: 4, WaysPerChannel: 2, BlocksPerDie: 12, PagesPerBlock: 32, PageSize: 256}
}

// lawFTL is one side of the law: an FTL over its own env and an array
// rolling a 2 % latent-error plan, so reads, GC, scrub and rebuild
// reach reconstruction and, with a die dead, GC's data-loss path.
type lawFTL struct {
	e   *sim.Env
	f   *FTL
	inj *fault.Injector
}

func newLawFTL(t testing.TB, build func(*sim.Env, *nand.Array, Config) *FTL) lawFTL {
	e := sim.NewEnv()
	arr := nand.New(e, lawNAND())
	inj, err := fault.NewInjector(e, fault.Plan{Seed: 5, SilentProb: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	arr.SetInjector(inj)
	return lawFTL{e, build(e, arr, DefaultConfig()), inj}
}

// do runs op to completion on the side's env.
func (s lawFTL) do(op func(p *sim.Proc)) {
	s.e.Spawn("law", op)
	s.e.Run()
}

// read is what a host read of lpn observes.
func (s lawFTL) read(lpn int) string {
	var got []byte
	var err error
	s.do(func(p *sim.Proc) { got, err = s.f.Read(p, lpn, 0, s.f.PageSize()) })
	return fmt.Sprintf("%x %v", got, err)
}

// checkLazyEqualsEager runs script on a lazy FTL and on one whose maps
// are made in full at birth. Every three bytes are one step on an lpn
// in a window of half the logical space around the first segment's
// end, wrapping to lpn 0, so that room is left when a die dies: a
// full-page write, a partial write, a trim, a read, a burst of
// overwrites that drives GC, a scrub and rebuild step, a die kill (the
// first only) or a stripe seal. After each step both FTLs must read the
// step's lpn back alike, with the same error, map the same lpns, show
// the same sim clock and RAIN and GC counts, and pass CheckInvariants.
func checkLazyEqualsEager(t testing.TB, script []byte) {
	t.Helper()
	lazy, eager := newLawFTL(t, New), newLawFTL(t, newEagerFTL)
	sides := []lawFTL{lazy, eager}
	n, ps := lazy.f.NumPages(), lazy.f.PageSize()
	window := func(k int) int { return (l2pSegPages - n/4 + k%(n/2)) % n }
	killed := false
	for i := 0; i+3 <= len(script); i += 3 {
		op, arg := script[i], int(binary.LittleEndian.Uint16(script[i+1:]))
		lpn := window(arg)
		page := bytes.Repeat([]byte{byte(i / 3)}, ps)
		var errs [2]string
		for k, s := range sides {
			s.do(func(p *sim.Proc) {
				var err error
				switch op % 8 {
				case 0:
					err = s.f.Write(p, lpn, 0, page)
				case 1:
					off := arg % ps
					err = s.f.Write(p, lpn, off, page[:1+(arg>>8)%(ps-off)])
				case 2:
					s.f.Trim(lpn)
				case 3:
					_, err = s.f.Read(p, lpn, 0, ps)
				case 4:
					for j := range 64 {
						if err = s.f.Write(p, window(arg+37*j), 0, page); err != nil {
							break
						}
					}
				case 5:
					s.f.ScrubStep(p)
					s.f.RebuildStep(p)
				case 6:
					if !killed {
						die := arg % lawNAND().Dies()
						s.inj.FailDie(die)
						s.f.RebuildDie(die)
					}
				case 7:
					s.f.SealStripe(p)
				}
				errs[k] = fmt.Sprint(err)
			})
		}
		killed = killed || op%8 == 6
		if errs[0] != errs[1] {
			t.Fatalf("step %d (op %d, lpn %d): error %s lazy, %s eager", i/3, op%8, lpn, errs[0], errs[1])
		}
		if l, e := lazy.read(lpn), eager.read(lpn); l != e {
			t.Fatalf("step %d (op %d): lpn %d reads\n%s lazy\n%s eager", i/3, op%8, lpn, l, e)
		}
		for q := range n {
			if lazy.f.Mapped(q) != eager.f.Mapped(q) {
				t.Fatalf("step %d (op %d): lpn %d mapped %v lazy, %v eager", i/3, op%8, q, lazy.f.Mapped(q), eager.f.Mapped(q))
			}
		}
		lr, lm := lazy.f.GCStats()
		er, em := eager.f.GCStats()
		if lazy.e.Now() != eager.e.Now() || lazy.f.Rain() != eager.f.Rain() || lr != er || lm != em {
			t.Fatalf("step %d (op %d): clock %v / %v, gc %d+%d / %d+%d, rain\n%+v lazy\n%+v eager", i/3, op%8,
				lazy.e.Now(), eager.e.Now(), lr, lm, er, em, lazy.f.Rain(), eager.f.Rain())
		}
		for _, s := range sides {
			if err := s.f.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %v", i/3, op%8, err)
			}
		}
	}
}

func TestLazyMapsEqualEager(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		script := make([]byte, 3*300)
		rand.New(rand.NewSource(seed)).Read(script)
		checkLazyEqualsEager(t, script)
	}
}

func FuzzFTLMaps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 0, 0, 4, 9, 2, 6, 3, 0, 5, 0, 0, 1, 200, 7, 2, 1, 0, 3, 1, 0})
	f.Add(bytes.Repeat([]byte{4, 17, 1, 12, 5, 3, 5, 0, 0}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*300 {
			script = script[:3*300]
		}
		checkLazyEqualsEager(t, script)
	})
}

// TestMapsFollowWhatIsMapped: a fresh FTL has made no map at all, and
// one page written makes one l2p segment and the reverse map of the
// block it landed on.
func TestMapsFollowWhatIsMapped(t *testing.T) {
	e := sim.NewEnv()
	f := New(e, nand.New(e, lawNAND()), Config{StripeDataPages: -1})
	if segsMade, segs, blocksMade, blocks := f.MapStats(); segsMade != 0 || blocksMade != 0 || segs != 2 || blocks != lawNAND().Dies()*lawNAND().BlocksPerDie {
		t.Fatalf("fresh FTL: l2p %d/%d, rev %d/%d; want 0/2 and 0/%d", segsMade, segs, blocksMade, blocks, lawNAND().Dies()*lawNAND().BlocksPerDie)
	}
	e.Spawn("io", func(p *sim.Proc) {
		if err := f.Write(p, l2pSegPages+3, 0, []byte{1}); err != nil {
			t.Error(err)
		}
		f.Trim(5) // unmapping an absent segment makes nothing
	})
	e.Run()
	if segsMade, _, blocksMade, _ := f.MapStats(); segsMade != 1 || blocksMade != 1 {
		t.Fatalf("one page written: %d segments and %d block maps made, want 1 and 1", segsMade, blocksMade)
	}
	checkMaps(t, f)
}
