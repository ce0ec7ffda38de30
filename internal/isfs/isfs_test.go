package isfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"biscuit/internal/ftl"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

func newFS(t *testing.T) (*sim.Env, *ftl.FTL, *FS) {
	t.Helper()
	e := sim.NewEnv()
	ncfg := nand.Config{
		Channels:       4,
		WaysPerChannel: 2,
		BlocksPerDie:   64,
		PagesPerBlock:  32,
		PageSize:       4096,
	}
	f := ftl.New(e, nand.New(e, ncfg), ftl.DefaultConfig())
	var fs *FS
	e.Spawn("fmt", func(p *sim.Proc) { fs = Format(p, f) })
	e.Run()
	return e, f, fs
}

func run(t *testing.T, e *sim.Env, fn func(p *sim.Proc)) {
	t.Helper()
	e.Spawn("test", fn)
	e.Run()
}

func TestCreateWriteReadBack(t *testing.T) {
	e, _, fs := newFS(t)
	data := bytes.Repeat([]byte("biscuit!"), 3000) // ~24 KB, crosses pages
	run(t, e, func(p *sim.Proc) {
		f, err := fs.Create("data.bin")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Write(p, 0, data); err != nil {
			t.Fatal(err)
		}
		f.Flush(p)
		if f.Size() != int64(len(data)) {
			t.Fatalf("size=%d want %d", f.Size(), len(data))
		}
		got := make([]byte, len(data))
		if _, err := f.Read(p, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		mid := make([]byte, 100)
		if _, err := f.Read(p, 5000, mid); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mid, data[5000:5100]) {
			t.Fatal("offset read mismatch")
		}
	})
}

func TestOpenModesEnforced(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		f, _ := fs.Create("x")
		f.Write(p, 0, []byte("hello"))
		f.Flush(p)
		ro, err := fs.Open("x", ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		if err := ro.Write(p, 0, []byte("nope")); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("err=%v, want ErrReadOnly", err)
		}
		buf := make([]byte, 5)
		ro.Read(p, 0, buf)
		if string(buf) != "hello" {
			t.Fatalf("got %q", buf)
		}
	})
}

func TestOpenMissingFails(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		if _, err := fs.Open("ghost", ReadOnly); !errors.Is(err, ErrNotExist) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestDuplicateCreateFails(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		fs.Create("a")
		if _, err := fs.Create("a"); !errors.Is(err, ErrExist) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestRemoveFreesSpace(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		before := fs.FreePages()
		f, _ := fs.Create("big")
		f.Write(p, 0, make([]byte, 64*4096))
		f.Flush(p)
		if fs.FreePages() >= before {
			t.Fatal("allocation did not consume pages")
		}
		if err := fs.Remove("big"); err != nil {
			t.Fatal(err)
		}
		if fs.FreePages() != before {
			t.Fatalf("free pages %d, want %d after remove", fs.FreePages(), before)
		}
		if _, err := fs.Open("big", ReadOnly); !errors.Is(err, ErrNotExist) {
			t.Fatal("file still visible after remove")
		}
	})
}

func TestMountPersistsMetadataAndData(t *testing.T) {
	e, f, fs := newFS(t)
	data := bytes.Repeat([]byte{0xCD}, 10000)
	run(t, e, func(p *sim.Proc) {
		file, _ := fs.Create("persist.me")
		file.Write(p, 0, data)
		file.Flush(p)
		fs.Sync(p)

		fs2, err := Mount(p, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs2.Open("persist.me", ReadOnly)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != int64(len(data)) {
			t.Fatalf("size=%d", got.Size())
		}
		buf := make([]byte, len(data))
		got.Read(p, 0, buf)
		if !bytes.Equal(buf, data) {
			t.Fatal("data lost across mount")
		}
	})
}

func TestMountOnBlankDeviceFails(t *testing.T) {
	e := sim.NewEnv()
	ncfg := nand.Config{Channels: 1, WaysPerChannel: 1, BlocksPerDie: 32, PagesPerBlock: 16, PageSize: 4096}
	f := ftl.New(e, nand.New(e, ncfg), ftl.DefaultConfig())
	run(t, e, func(p *sim.Proc) {
		if _, err := Mount(p, f); !errors.Is(err, ErrBadMount) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestSegmentsResolveExtents(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		// Force fragmentation: allocate a, b, remove a, extend b.
		a, _ := fs.Create("a")
		a.Write(p, 0, make([]byte, 8*4096))
		b, _ := fs.Create("b")
		b.Write(p, 0, make([]byte, 4*4096))
		b.Flush(p)
		fs.Remove("a")
		b.Write(p, 4*4096, make([]byte, 8*4096))
		b.Flush(p)
		segs, err := b.Segments(0, int(b.Size()))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range segs {
			total += s.N
		}
		if total != int(b.Size()) {
			t.Fatalf("segments cover %d of %d", total, b.Size())
		}
	})
}

func TestSparseReadAcrossFragmentsMatchesShadow(t *testing.T) {
	e, _, fs := newFS(t)
	rng := rand.New(rand.NewSource(7))
	run(t, e, func(p *sim.Proc) {
		// Build fragmentation by interleaving file growth.
		f1, _ := fs.Create("f1")
		f2, _ := fs.Create("f2")
		shadow := make([]byte, 0, 40*4096)
		for i := 0; i < 10; i++ {
			chunk := make([]byte, 4096*(1+rng.Intn(3)))
			rng.Read(chunk)
			f1.Write(p, int64(len(shadow)), chunk)
			shadow = append(shadow, chunk...)
			f2.Write(p, int64(i)*4096, make([]byte, 4096))
		}
		f1.Flush(p)
		f2.Flush(p)
		for trial := 0; trial < 20; trial++ {
			off := rng.Intn(len(shadow) - 1)
			n := rng.Intn(len(shadow)-off-1) + 1
			buf := make([]byte, n)
			if _, err := f1.Read(p, int64(off), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, shadow[off:off+n]) {
				t.Fatalf("trial %d: mismatch at off=%d n=%d", trial, off, n)
			}
		}
	})
}

func TestReadThroughStreamsWholeFile(t *testing.T) {
	e, _, fs := newFS(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 2048) // 32 KiB
	run(t, e, func(p *sim.Proc) {
		f, _ := fs.Create("stream")
		f.Write(p, 0, data)
		f.Flush(p)
		out := make([]byte, len(data))
		seen := 0
		err := f.ReadThrough(p, 0, len(data), sim.Microsecond, func(off int64, b []byte) {
			copy(out[off:], b)
			seen += len(b)
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != len(data) || !bytes.Equal(out, data) {
			t.Fatalf("streamed %d bytes, equal=%v", seen, bytes.Equal(out, data))
		}
	})
}

func TestTruncateReleasesPages(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		f, _ := fs.Create("t")
		f.Write(p, 0, make([]byte, 10*4096))
		f.Flush(p)
		before := fs.FreePages()
		if err := f.Truncate(p, 2*4096); err != nil {
			t.Fatal(err)
		}
		if fs.FreePages() != before+8 {
			t.Fatalf("free pages %d, want %d", fs.FreePages(), before+8)
		}
		if f.Size() != 2*4096 {
			t.Fatalf("size=%d", f.Size())
		}
		buf := make([]byte, 4096)
		if _, err := f.Read(p, 4096, buf); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOutOfRangeReadRejected(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		f, _ := fs.Create("small")
		f.Write(p, 0, []byte("abc"))
		f.Flush(p)
		if _, err := f.Read(p, 2, make([]byte, 10)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestAsyncReadsOverlapAcrossFiles(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		f, _ := fs.Create("wide")
		f.Write(p, 0, make([]byte, 16*4096))
		f.Flush(p)
		// Synchronous page reads, one at a time.
		start := p.Now()
		buf := make([]byte, 4096)
		for i := 0; i < 8; i++ {
			f.Read(p, int64(i*4096), buf)
		}
		syncT := p.Now() - start
		// Async: issue all, wait once.
		start = p.Now()
		bufs := make([][]byte, 8)
		evs := make([]*sim.Completion, 8)
		for i := range evs {
			bufs[i] = make([]byte, 4096)
			ev, err := f.ReadAsync(p, int64(i*4096), bufs[i])
			if err != nil {
				t.Fatal(err)
			}
			evs[i] = ev
		}
		for _, c := range evs {
			p.Wait(c.Event())
		}
		asyncT := p.Now() - start
		if asyncT*2 > syncT {
			t.Fatalf("async %v should beat sync %v by >2x", asyncT, syncT)
		}
	})
}

func TestListSorted(t *testing.T) {
	e, _, fs := newFS(t)
	run(t, e, func(p *sim.Proc) {
		fs.Create("zeta")
		fs.Create("alpha")
		fs.Create("mid")
		got := fs.List()
		want := []string{"alpha", "mid", "zeta"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("list=%v", got)
			}
		}
	})
}

func TestRandomFileOperationsProperty(t *testing.T) {
	// Property: an arbitrary interleaving of create/write/truncate/remove
	// across several files always matches an in-memory shadow model, and
	// the free-page count returns to its starting value once every file
	// is removed.
	prop := func(seed int64) bool {
		e := sim.NewEnv()
		ncfg := nand.Config{
			Channels: 4, WaysPerChannel: 2, BlocksPerDie: 64, PagesPerBlock: 32,
			PageSize: 4096,
		}
		f := ftl.New(e, nand.New(e, ncfg), ftl.DefaultConfig())
		ok := true
		e.Spawn("prop", func(p *sim.Proc) {
			fs := Format(p, f)
			base := fs.FreePages()
			rng := rand.New(rand.NewSource(seed))
			shadow := map[string][]byte{}
			handles := map[string]*File{}
			names := []string{"a", "b", "c"}
			for op := 0; op < 60 && ok; op++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(5) {
				case 0: // create
					if _, exists := shadow[name]; !exists {
						h, err := fs.Create(name)
						if err != nil {
							ok = false
							return
						}
						shadow[name] = nil
						handles[name] = h
					}
				case 1, 2: // write at random offset
					h, exists := handles[name]
					if !exists {
						continue
					}
					off := rng.Intn(20000)
					chunk := make([]byte, rng.Intn(9000)+1)
					rng.Read(chunk)
					if err := h.Write(p, int64(off), chunk); err != nil {
						ok = false
						return
					}
					h.Flush(p)
					data := shadow[name]
					if need := off + len(chunk); need > len(data) {
						data = append(data, make([]byte, need-len(data))...)
					}
					copy(data[off:], chunk)
					shadow[name] = data
				case 3: // truncate
					h, exists := handles[name]
					if !exists || len(shadow[name]) == 0 {
						continue
					}
					to := rng.Intn(len(shadow[name]))
					if err := h.Truncate(p, int64(to)); err != nil {
						ok = false
						return
					}
					shadow[name] = shadow[name][:to]
				case 4: // verify full contents
					h, exists := handles[name]
					if !exists {
						continue
					}
					want := shadow[name]
					got := make([]byte, len(want))
					if len(want) > 0 {
						if _, err := h.Read(p, 0, got); err != nil {
							ok = false
							return
						}
					}
					if !bytes.Equal(got, want) {
						ok = false
						return
					}
				}
			}
			// Final verify + cleanup.
			for name, want := range shadow {
				h := handles[name]
				got := make([]byte, len(want))
				if len(want) > 0 {
					if _, err := h.Read(p, 0, got); err != nil {
						ok = false
						return
					}
				}
				if !bytes.Equal(got, want) {
					ok = false
					return
				}
				if err := fs.Remove(name); err != nil {
					ok = false
					return
				}
			}
			if fs.FreePages() != base {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
