package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"biscuit/internal/fault"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

// fillPattern writes pages logical pages of deterministic content and
// seals the trailing stripe so every page is parity-protected.
func fillPattern(t *testing.T, f *FTL, p *sim.Proc, pages int) []byte {
	t.Helper()
	ps := f.PageSize()
	data := make([]byte, pages*ps)
	for i := range data {
		data[i] = byte(i*7 + i/ps)
	}
	if err := f.WriteRange(p, 0, data); err != nil {
		t.Fatal(err)
	}
	f.SealStripe(p)
	return data
}

func TestHostReadReconstructsLatentPage(t *testing.T) {
	// Latent sector errors planted at program time make the damaged page
	// fail every host read. The degraded-mode read path must rebuild the
	// contents from the page's stripe siblings plus parity, invisibly to
	// the caller except for the added latency.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 21, SilentProb: 0.05})
	pages := 128
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		ps := f.PageSize()
		for lpn := 0; lpn < pages; lpn++ {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d: degraded read failed: %v", lpn, err)
			}
			if !bytes.Equal(got, data[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d: reconstructed content wrong", lpn)
			}
		}
	})
	e.Run()
	checkMaps(t, f)
	if inj.Count(fault.SilentCorrupt) == 0 {
		t.Fatal("plan injected no silent corruption; test exercised nothing")
	}
	rs := f.Rain()
	if rs.DegradedReads == 0 || rs.Reconstructs == 0 {
		t.Fatalf("no degraded reads went through reconstruction: %+v", rs)
	}
	if inj.Count(fault.Reconstruct) != rs.Reconstructs {
		t.Fatalf("injector logged %d reconstructs, FTL counted %d",
			inj.Count(fault.Reconstruct), rs.Reconstructs)
	}
}

func TestDegradedReadCostsStripeReads(t *testing.T) {
	// Reconstruction is not free: it must pay for reading the W
	// surviving members plus parity, so a degraded read takes longer
	// than a clean one.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 21, SilentProb: 0.05})
	pages := 128
	var clean, degraded sim.Time
	e.Spawn("io", func(p *sim.Proc) {
		fillPattern(t, f, p, pages)
		ps := f.PageSize()
		for lpn := 0; lpn < pages; lpn++ {
			before := f.Rain().DegradedReads
			start := p.Now()
			if _, err := f.Read(p, lpn, 0, ps); err != nil {
				t.Fatal(err)
			}
			d := p.Now() - start
			if f.Rain().DegradedReads > before {
				if degraded == 0 || d < degraded {
					degraded = d // fastest degraded read
				}
			} else if d > clean {
				clean = d // slowest clean read
			}
		}
	})
	e.Run()
	checkMaps(t, f)
	if degraded == 0 {
		t.Skip("no degraded read under this seed")
	}
	if degraded <= clean {
		t.Fatalf("degraded read (%v) should cost more than any clean read (%v)", degraded, clean)
	}
}

func TestDegradedReadAfterDieFailure(t *testing.T) {
	// A whole die dies after the data lands. Every page on it is gone
	// from the media, but each sits in a stripe whose other pages live
	// on different channels — the read path must rebuild all of them.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 22})
	pages := 64
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		inj.FailDie(0)
		ps := f.PageSize()
		for lpn := 0; lpn < pages; lpn++ {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d unreadable after die failure: %v", lpn, err)
			}
			if !bytes.Equal(got, data[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d content wrong after die failure", lpn)
			}
		}
	})
	e.Run()
	checkMaps(t, f)
	if !f.Array().DieDead(0) {
		t.Fatal("die 0 should be dead")
	}
	rs := f.Rain()
	if rs.Reconstructs == 0 || rs.DegradedReads == 0 {
		t.Fatalf("die failure produced no reconstructions: %+v", rs)
	}
	if inj.Count(fault.DieFail) == 0 {
		t.Fatal("die failure not recorded in the injector log")
	}
}

func TestScrubRepairsLatentDamage(t *testing.T) {
	// The patrol scrub walks the stripe population and converts latent
	// sector errors into repairs: damaged members are rebuilt from
	// parity and remapped to fresh pages. After a full pass the data
	// must read back clean without any further degraded reads.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 23, SilentProb: 0.05})
	pages := 128
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		// Walk every stripe twice: the first pass repairs the damage it
		// finds (possibly planting fresh latent errors on the rewritten
		// pages), the second catches stragglers.
		seals := int(f.Rain().StripeSeals)
		for i := 0; i < 2*seals; i++ {
			if !f.ScrubStep(p) {
				break
			}
		}
		ps := f.PageSize()
		for lpn := 0; lpn < pages; lpn++ {
			got, err := f.Read(p, lpn, 0, ps)
			if err != nil {
				t.Fatalf("lpn %d unreadable after scrub: %v", lpn, err)
			}
			if !bytes.Equal(got, data[lpn*ps:(lpn+1)*ps]) {
				t.Fatalf("lpn %d content wrong after scrub", lpn)
			}
		}
	})
	e.Run()
	checkMaps(t, f)
	if inj.Count(fault.SilentCorrupt) == 0 {
		t.Fatal("plan injected no silent corruption; test exercised nothing")
	}
	rs := f.Rain()
	if rs.ScrubStripes == 0 {
		t.Fatal("scrub examined no stripes")
	}
	if rs.ScrubRepairs == 0 && rs.ScrubParityFixes == 0 {
		t.Fatalf("scrub repaired nothing under 5%% silent corruption: %+v", rs)
	}
	if inj.Count(fault.ScrubRepair) != rs.ScrubRepairs+rs.ScrubParityFixes {
		t.Fatalf("injector logged %d scrub repairs, FTL counted %d+%d",
			inj.Count(fault.ScrubRepair), rs.ScrubRepairs, rs.ScrubParityFixes)
	}
}

func TestBeyondParityLossSurfaces(t *testing.T) {
	// Single parity protects against one lost page per stripe. When the
	// whole array goes unreadable (every sibling read fails too),
	// reconstruction must give up and surface the media error rather
	// than fabricate data.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 24, UncorrectableProb: 1})
	e.Spawn("io", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xA5}, f.PageSize())
		if err := f.Write(p, 0, 0, data); err != nil {
			t.Fatal(err)
		}
		f.SealStripe(p)
		_, err := f.Read(p, 0, 0, f.PageSize())
		if !errors.Is(err, fault.ErrUncorrectable) {
			t.Fatalf("want wrapped ErrUncorrectable, got %v", err)
		}
	})
	e.Run()
	checkMaps(t, f)
	rs := f.Rain()
	if rs.ReconstructFails == 0 {
		t.Fatal("failed reconstruction not counted")
	}
	if rs.DegradedReads != 0 {
		t.Fatal("a failed reconstruction must not count as a degraded read")
	}
}

// rainRun executes one full write/corrupt/scrub/read cycle and returns
// a transcript capturing everything observable: content hashes, stats,
// and the injector's event log.
func rainRun(seed int64) string {
	e := sim.NewEnv()
	arr := nand.New(e, smallNAND())
	inj, err := fault.NewInjector(e, fault.Plan{Seed: seed, SilentProb: 0.04})
	if err != nil {
		panic(err)
	}
	arr.SetInjector(inj)
	f := New(e, arr, DefaultConfig())
	pages := 96
	var out []byte
	e.Spawn("io", func(p *sim.Proc) {
		ps := f.PageSize()
		data := make([]byte, pages*ps)
		for i := range data {
			data[i] = byte(i * 11)
		}
		if err := f.WriteRange(p, 0, data); err != nil {
			panic(err)
		}
		f.SealStripe(p)
		for i := 0; i < 32; i++ {
			f.ScrubStep(p)
		}
		out, err = f.ReadRange(p, 0, len(data))
		if err != nil {
			panic(err)
		}
	})
	e.Run()
	sum := 0
	for _, b := range out {
		sum = sum*31 + int(b)
	}
	return fmt.Sprintf("content=%x stats=%+v sig=%s now=%d", sum, f.Rain(), inj.Signature(), e.Now())
}

func TestRainDeterminism(t *testing.T) {
	// Identical seeds must give byte-identical behavior: same repairs,
	// same reconstructions, same injector event log, same sim clock.
	a, b := rainRun(9), rainRun(9)
	if a != b {
		t.Fatalf("same-seed runs diverged:\n%s\n%s", a, b)
	}
	if c := rainRun(10); c == a {
		t.Fatal("different seeds produced identical fault transcripts")
	}
}

// TestXorIntoMatchesByteLoop: xorInto is the word-wide subtle.XORBytes;
// it must equal the byte loop it replaced for every length and for
// operands that start at odd addresses, and must leave dst beyond
// len(src) alone.
func TestXorIntoMatchesByteLoop(t *testing.T) {
	backing := make([]byte, 2*300)
	for i := range backing {
		backing[i] = byte(i*131 + 7)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 127, 255} {
		for dstOff := 0; dstOff < 9; dstOff++ {
			for srcOff := 0; srcOff < 9; srcOff++ {
				src := backing[300+srcOff : 300+srcOff+n]
				dst := bytes.Clone(backing[:dstOff+n+5])[dstOff:]
				want := bytes.Clone(dst)
				for i := range src {
					want[i] ^= src[i]
				}
				xorInto(dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("n=%d dst+%d src+%d: xorInto differs from the byte loop", n, dstOff, srcOff)
				}
			}
		}
	}
}

// TestFoldMatchesByteLoopAndChargesPerPage: fold is the only
// XOR-accumulate-and-charge body, so its two contracts are pinned here
// once. The result is the byte-loop XOR of the seed and every non-nil
// page (inputs untouched); the charge is 0.125 firmware cycles per byte
// per page folded, seed included, nil pages free — the number every
// sim-clock baseline depends on.
func TestFoldMatchesByteLoopAndChargesPerPage(t *testing.T) {
	e, f := newFTL(t)
	ps, w := f.PageSize(), f.StripeWidth()
	page := func(k int) []byte {
		b := make([]byte, ps)
		for i := range b {
			b[i] = byte(i*(2*k+3) + k)
		}
		return b
	}
	seq := func(n int) [][]byte {
		pages := make([][]byte, n)
		for i := range pages {
			pages[i] = page(i + 1)
		}
		return pages
	}
	holed := seq(w)
	holed[w/2] = nil
	for _, tc := range []struct {
		name  string
		seed  []byte
		pages [][]byte
	}{
		{"nothing", nil, nil},
		{"seed only", page(0), nil},
		{"one page", nil, seq(1)},
		{"one page, seeded", page(0), seq(1)},
		{"W pages", nil, seq(w)},
		{"W pages, seeded", page(0), seq(w)},
		{"nil page in the middle", nil, holed},
		{"nil page in the middle, seeded", page(0), holed},
	} {
		want, folded := make([]byte, ps), 0
		for _, src := range append([][]byte{tc.seed}, tc.pages...) {
			if src == nil {
				continue
			}
			folded++
			for i := range src {
				want[i] ^= src[i]
			}
		}
		seedBefore := bytes.Clone(tc.seed)
		var got []byte
		var took sim.Time
		e.Spawn("fold", func(p *sim.Proc) {
			start := p.Now()
			got = f.fold(p, tc.seed, tc.pages)
			took = p.Now() - start
		})
		e.Run()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fold differs from the byte loop", tc.name)
		}
		if !bytes.Equal(tc.seed, seedBefore) {
			t.Errorf("%s: fold wrote into its seed", tc.name)
		}
		if charge := f.fw.Time(0.125 * float64(ps) * float64(folded)); took != charge {
			t.Errorf("%s: fold took %v, want %v (%d pages folded)", tc.name, took, charge, folded)
		}
	}
}

// checkParityPlacement verifies the channel-mask contract on every
// sealed stripe: members on distinct channels, parity on none of them.
// The one sanctioned exception is writePage's relaxation — no live die
// on a non-member channel had room left in the superblock the parity
// went to — so a parity found sharing a member's channel is accepted
// only if no such die still holds that superblock open. seen carries
// the already-vetted exceptions between calls (the superblock closes
// later, which would make a late re-check vacuous but not wrong).
func checkParityPlacement(t *testing.T, f *FTL, seen map[*stripeRec]int) (relaxed int) {
	t.Helper()
	ways := f.arr.Config().WaysPerChannel
	for sid, st := range f.stripes {
		if st == nil {
			continue
		}
		var mask uint64
		for _, m := range st.members {
			bit := uint64(1) << f.channelOf(m)
			if mask&bit != 0 {
				t.Fatalf("stripe %d: two members on channel %d", sid, f.channelOf(m))
			}
			mask |= bit
		}
		if mask>>f.channelOf(st.parity)&1 == 0 {
			continue
		}
		relaxed++
		if seen[st] == st.parity {
			continue
		}
		seen[st] = st.parity
		_, sb, _ := f.decode(st.parity)
		for die, d := range f.dies {
			if mask>>(die/ways)&1 == 0 && !f.arr.DieDead(die) && d.isOpen(sb) {
				t.Fatalf("stripe %d: parity %v shares a member channel (mask %04b) though die %d had room in superblock %d",
					sid, f.ppa(st.parity), mask, die, sb)
			}
		}
	}
	return relaxed
}

func TestParityLandsOffMemberChannels(t *testing.T) {
	// Seeded overwrite churn at full occupancy with latent sector
	// errors drives every parity writer through writeParity: seals on
	// both streams, GC's shrinkMembers and relocateParity, and scrub's
	// rewriteParity. After every single operation, every sealed stripe
	// must have its parity off its members' channels.
	e, f, _ := newFaultyFTL(t, fault.Plan{Seed: 3, SilentProb: 0.02})
	rng := rand.New(rand.NewSource(3))
	seen := map[*stripeRec]int{}
	e.Spawn("io", func(p *sim.Proc) {
		n, buf := f.NumPages(), make([]byte, f.PageSize())
		write := func(lpn int) {
			rng.Read(buf)
			if err := f.Write(p, lpn, 0, buf); err != nil {
				t.Fatal(err)
			}
			checkParityPlacement(t, f, seen)
		}
		for lpn := 0; lpn < n; lpn++ {
			write(lpn)
		}
		for round := 0; round < 4; round++ {
			for i := 0; i < n; i++ {
				write(rng.Intn(n))
			}
			for i := 0; i < 60; i++ {
				f.ScrubStep(p)
				checkParityPlacement(t, f, seen)
			}
		}
	})
	e.Run()
	checkMaps(t, f)
	rs := f.Rain()
	rounds, _ := f.GCStats()
	relocs := rs.ParityWrites - rs.StripeSeals - rs.StripeShrinks - rs.ScrubParityFixes
	if rs.StripeSeals == 0 || rounds == 0 || rs.StripeShrinks == 0 || relocs == 0 || rs.ScrubParityFixes == 0 {
		t.Fatalf("churn missed a parity writer: gc rounds %d, parity relocations %d, %+v", rounds, relocs, rs)
	}
	if rs.ParityFails != 0 {
		t.Fatalf("parity programs failed: %+v", rs)
	}
}

func TestParityPlacementRelaxesWhenNoOtherChannelLives(t *testing.T) {
	// The relaxed twin: with every die of the one non-member channel
	// dead, a full-width stripe has nowhere legal to put its parity. It
	// must still land — sharing a member's channel protects against
	// page loss, just not against that channel dying — and not count as
	// a parity failure.
	e, f, inj := newFaultyFTL(t, fault.Plan{Seed: 4})
	nc := f.arr.Config()
	for way := 0; way < nc.WaysPerChannel; way++ {
		inj.FailDie((nc.Channels-1)*nc.WaysPerChannel + way)
	}
	pages := 8 * f.StripeWidth()
	e.Spawn("io", func(p *sim.Proc) {
		data := fillPattern(t, f, p, pages)
		got, err := f.ReadRange(p, 0, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back after relaxed seals: err=%v", err)
		}
	})
	e.Run()
	checkMaps(t, f)
	rs := f.Rain()
	if rs.ParityFails != 0 || rs.StripeSeals == 0 {
		t.Fatalf("relaxed placement must seal without parity failures: %+v", rs)
	}
	if relaxed := checkParityPlacement(t, f, map[*stripeRec]int{}); int64(relaxed) != rs.StripeSeals-rs.StripeDrops {
		t.Fatalf("%d of %d stripes relaxed; with the spare channel dead all of them must",
			relaxed, rs.StripeSeals-rs.StripeDrops)
	}
}
