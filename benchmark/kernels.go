package main

import (
	"fmt"

	"biscuit"
	"biscuit/internal/db"
	"biscuit/internal/db/planner"
	"biscuit/internal/fibers"
	"biscuit/internal/isfs"
	"biscuit/internal/match"
	"biscuit/internal/mem"
	"biscuit/internal/nand"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
	"biscuit/internal/trace"
	"biscuit/internal/weblog"
)

// Layer kernels: the benchmark calls one layer's public function from
// outside, on the workload's own bytes, and reports the median host
// time and bytes allocated per unit of work. Each kernel runs under
// the workload whose bytes it uses; the other workloads report it as 0.

// kernel times the closure prep returns, kernelReps times, and reports
// median ns and median allocated bytes per unit. prep runs untimed
// before every rep, for kernels that need a fresh platform.
func (c *ctx) kernel(name string, units int, prep func() func()) (ns, allocB float64) {
	var nss, bs []float64
	for i := 0; i < c.sc.kernelReps; i++ {
		run := prep()
		c.rec.do("kernel."+name, func() {
			m := startMeter()
			run()
			got := m.stop()
			nss = append(nss, float64(got.wall.Nanoseconds())/float64(units))
			bs = append(bs, float64(got.bytes)/float64(units))
		})
	}
	return median(nss), median(bs)
}

func just(run func()) func() func() { return func() func() { return run } }

// putKernel reports a kernel's time under name and, when allocName is
// set, its allocation.
func (r *result) putKernel(c *ctx, name, allocName string, scale float64, units int, prep func() func()) {
	ns, b := c.kernel(name, units, prep)
	r.put(name, ns*scale, c.sc.kernelReps)
	if allocName != "" {
		r.put(allocName, b, c.sc.kernelReps)
	}
}

const (
	perNs = 1
	perUs = 1e-3
	perMs = 1e-6
)

// inSim runs fn as the only process of sys's environment.
func inSim(env *sim.Env, fn func(p *sim.Proc)) {
	env.Spawn("kernel", fn)
	env.Run()
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
}

// peekPages copies the first n pages of a file without advancing sim
// time — the workload's own bytes, as the layers see them.
func peekPages(sys *biscuit.System, file string, n int) (data []byte, pageSize int, lpns []int) {
	f, err := sys.RT.FS.Open(file, isfs.ReadOnly)
	must(err)
	pageSize = sys.Plat.FTL.PageSize()
	n = min(n, int(f.Size())/pageSize)
	data = make([]byte, n*pageSize)
	must(f.Peek(0, data))
	segs, err := f.Segments(0, len(data))
	must(err)
	for _, s := range segs {
		for off := 0; off < s.N; off += pageSize {
			lpns = append(lpns, int((s.FTLOff+int64(off))/int64(pageSize)))
		}
	}
	return data, pageSize, lpns
}

const kernelPages = 64

func grepKernels(c *ctx, r *result, st *grepState) {
	text, ps, _ := peekPages(st.sys, weblog.LogFile, 4*kernelPages)
	pages := len(text) / ps
	a := match.MustCompile(grepNeedle)
	hits := 0
	r.putKernel(c, "match.contains_ns_per_byte", "", perNs, len(text), just(func() {
		for off := 0; off < len(text); off += ps {
			if a.Contains(text[off : off+ps]) {
				hits++
			}
		}
	}))
	r.putKernel(c, "match.stream_ns_per_byte", "", perNs, len(text), just(func() {
		s := a.NewStream()
		for off := 0; off < len(text); off += ps {
			s.Feed(text[off:off+ps], func(match.Match) { hits++ })
		}
	}))
	bm := match.NewHorspool([]byte(grepNeedle))
	r.putKernel(c, "match.horspool_ns_per_byte", "", perNs, len(text), just(func() { hits += bm.Count(text) }))

	f, err := st.sys.RT.FS.Open(weblog.LogFile, isfs.ReadOnly)
	must(err)
	buf := make([]byte, len(text))
	r.putKernel(c, "isfs.read_ns_per_page", "", perNs, pages, just(func() {
		inSim(st.sys.Env, func(p *sim.Proc) {
			_, err := f.Read(p, 0, buf)
			must(err)
		})
	}))
	r.putKernel(c, "isfs.readthrough_ns_per_page", "", perNs, pages, just(func() {
		inSim(st.sys.Env, func(p *sim.Proc) {
			must(f.ReadThrough(p, 0, len(buf), st.sys.Plat.Cfg.PatternMatcherOverhead, func(int64, []byte) { hits++ }))
		})
	}))
	r.putKernel(c, "hostif.read_ns_per_mb", "hostif.read_alloc_b_per_mb", perNs, len(buf)/mb, just(func() {
		st.sys.Run(func(h *biscuit.Host) {
			must(h.SSD().ReadFileConvAsync(f, 0, buf, 256<<10, 16))
		})
	}))

	const genBytes = 2 * mb
	r.putKernel(c, "weblog.generate_ms_per_mb", "", perMs, genBytes/mb, func() func() {
		sys := biscuit.NewSystem(c.sc.grepConfig())
		return func() {
			sys.Run(func(h *biscuit.Host) {
				_, _, err := weblog.Generate(h, genBytes, grepNeedle, c.sc.needleEvery, biscuit.SeededRand(c.seed))
				must(err)
			})
		}
	})
}

// smallArray is a NAND array just big enough for the page kernels:
// the paper device's channels and timings, one block per die, and the
// first page of every die as the kernel's address list.
func smallArray() (*sim.Env, *nand.Array, []nand.PPA) {
	cfg := biscuit.DefaultConfig().NAND
	cfg.BlocksPerDie, cfg.PagesPerBlock = 1, 4
	env := sim.NewEnv()
	arr := nand.New(env, cfg)
	var addrs []nand.PPA
	for way := 0; way < cfg.WaysPerChannel; way++ {
		for ch := 0; ch < cfg.Channels; ch++ {
			addrs = append(addrs, nand.PPA{Channel: ch, Way: way})
		}
	}
	return env, arr, addrs
}

// programPages writes one page of data to every address.
func programPages(env *sim.Env, arr *nand.Array, addrs []nand.PPA, data []byte, ps int) {
	inSim(env, func(p *sim.Proc) {
		for i, a := range addrs {
			must(arr.Program(p, a, data[(i*ps)%len(data):][:ps]))
		}
	})
}

func tpchKernels(c *ctx, r *result, st *tpchState) {
	li := st.data.Lineitem
	data, ps, lpns := peekPages(st.sys, li.FileName, kernelPages)
	pages := len(data) / ps
	rows := 0
	for off := 0; off < len(data); off += ps {
		rows += db.PageRowCount(data[off : off+ps])
	}
	seen := 0
	r.putKernel(c, "db.decode_ns_per_row", "db.decode_alloc_b_per_row", perNs, rows, just(func() {
		for off := 0; off < len(data); off += ps {
			must(db.DecodePage(data[off:off+ps], li.Sch, func(db.Row) error { seen++; return nil }))
		}
	}))

	pred := db.AndOf(
		db.RangeD(li.Sch, "l_shipdate", "1994-01-01", "1995-01-01"),
		db.Cmp{Op: db.LT, L: db.C(li.Sch, "l_quantity"), R: db.Lit(db.Int(24))},
	)
	r.putKernel(c, "db.conv_scan_ns_per_row", "", perNs, int(li.Rows), just(func() {
		st.sys.Run(func(h *biscuit.Host) {
			_, err := db.Collect(db.NewExec(h, st.data.DB).NewConvScan(li, pred))
			must(err)
		})
	}))
	const plans = 8
	r.putKernel(c, "planner.plan_scan_us", "", perUs, plans, just(func() {
		st.sys.Run(func(h *biscuit.Host) {
			pl := planner.Default()
			for i := 0; i < plans; i++ {
				pl.PlanScan(db.NewExec(h, st.data.DB), li, pred)
			}
		})
	}))

	r.putKernel(c, "ftl.read_ns_per_page", "ftl.read_alloc_b_per_page", perNs, pages, just(func() {
		inSim(st.sys.Env, func(p *sim.Proc) {
			for _, lpn := range lpns {
				_, err := st.sys.Plat.FTL.Read(p, lpn, 0, ps)
				must(err)
			}
		})
	}))
	env, arr, addrs := smallArray()
	programPages(env, arr, addrs, data, ps)
	r.putKernel(c, "nand.read_ns_per_page", "nand.read_alloc_b_per_page", perNs, len(addrs), just(func() {
		inSim(env, func(p *sim.Proc) {
			for _, a := range addrs {
				_, err := arr.Read(p, a, 0, ps)
				must(err)
			}
		})
	}))

	// A fifth of the suite's scale keeps twenty fresh loads affordable;
	// the figure is per MiB of table data.
	sf := c.sc.tpchSF / 5
	var tableBytes int64
	ns, _ := c.kernel("tpch.load_ms_per_mb", 1, func() func() {
		sys := biscuit.NewSystem(c.sc.benchConfig())
		return func() {
			tableBytes = 0
			for _, t := range loadTPCH(sys, sf, c.seed).DB.Tables() {
				tableBytes += t.Bytes()
			}
		}
	})
	r.put("tpch.load_ms_per_mb", ns*perMs/(float64(tableBytes)/mb), c.sc.kernelReps)
}

func serveKernels(c *ctx, r *result) {
	n := c.sc.kernelN
	r.putKernel(c, "sim.handoff_ns", "", perNs, 2*n, just(func() {
		env := sim.NewEnv()
		for i := 0; i < 2; i++ {
			env.Spawn("pingpong", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					p.Sleep(1)
				}
			})
		}
		env.Run()
	}))
	fired := 0
	r.putKernel(c, "sim.event_ns", "", perNs, n, just(func() {
		env := sim.NewEnv()
		for i := 0; i < n; i += 128 {
			for j := 0; j < 128; j++ {
				env.After(sim.Time(j%37), func() { fired++ })
			}
			env.Run()
		}
	}))
	r.putKernel(c, "sim.spawn_ns", "", perNs, n, just(func() {
		env := sim.NewEnv()
		for i := 0; i < n; i++ {
			env.Spawn("leaf", func(*sim.Proc) { fired++ })
		}
		env.Run()
	}))
	r.putKernel(c, "fibers.switch_ns", "", perNs, 2*n, just(func() {
		env := sim.NewEnv()
		g := fibers.New(env, fibers.Config{Cores: 1, Hz: 750e6, CSW: 100}).NewGroup()
		for i := 0; i < 2; i++ {
			g.Go("pingpong", func(f *fibers.Fiber) {
				for j := 0; j < n; j++ {
					f.Yield()
				}
			})
		}
		env.Run()
	}))
	const packets = 200
	r.putKernel(c, "ports.encode_decode_ns", "", perNs, packets, just(func() {
		for i := 0; i < packets; i++ {
			pkt, err := ports.Encode(biscuit.ScanResult{Matches: int64(i), Bytes: 1 << 20})
			must(err)
			_, err = ports.Decode[biscuit.ScanResult](pkt)
			must(err)
		}
	}))
	r.putKernel(c, "trace.span_ns", "", perNs, n, just(func() {
		tr := trace.New(sim.NewEnv())
		tk := tr.Track("host/kernel")
		for i := 0; i < n; i++ {
			tr.Begin(tk, "span").End()
		}
	}))
}

func ingestKernels(c *ctx, r *result, st *ingestState) {
	cfg := c.sc.scratchConfig()
	ps := cfg.NAND.PageSize
	r.putKernel(c, "nand.program_ns_per_page", "", perNs, biscuit.DefaultConfig().NAND.Dies(), func() func() {
		env, arr, addrs := smallArray()
		return func() { programPages(env, arr, addrs, st.payload, ps) }
	})
	r.putKernel(c, "ftl.write_ns_per_page", "", perNs, kernelPages, func() func() {
		sys := biscuit.NewSystem(cfg)
		return func() {
			inSim(sys.Env, func(p *sim.Proc) {
				last := sys.Plat.FTL.NumPages() - 1
				for i := 0; i < kernelPages; i++ {
					must(sys.Plat.FTL.Write(p, last-i, 0, st.payload[i*ps:][:ps]))
				}
			})
		}
	})
	const writeMB = 4
	r.putKernel(c, "isfs.write_ns_per_mb", "", perNs, writeMB, func() func() {
		sys := biscuit.NewSystem(cfg)
		return func() {
			sys.Run(func(h *biscuit.Host) {
				f, err := h.SSD().CreateFile("kernel")
				must(err)
				for i := 0; i < writeMB; i++ {
					must(h.SSD().WriteFile(f, int64(i*mb), st.payload[:mb]))
				}
			})
		}
	})
	base := c.sc.benchConfig()
	r.putKernel(c, "mem.new_device_memory_ms", "", perMs, 1, just(func() {
		_, err := mem.NewDeviceMemory(base.SystemHeap, base.UserHeap)
		must(err)
	}))
	ns, b := c.kernel("device.new_system_ms", 1, just(func() { biscuit.NewSystem(base) }))
	r.put("device.new_system_ms", ns*perMs, c.sc.kernelReps)
	r.put("device.new_system_alloc_mb", b/mb, c.sc.kernelReps)
}
