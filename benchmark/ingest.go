package main

import (
	"bytes"
	"fmt"

	"biscuit"
)

var ingest = workload{
	name:  "ingest",
	why:   "the write path: platform construction, row encode and a TPC-H load, then a hot-half overwrite driving isfs/ftl writes, RAIN parity, NAND program/erase and GC; read-path changes must not move it",
	build: func(c *ctx) state { return buildIngest(c) },
}

const (
	fillChunkPages      = 64 // 1 MiB fill writes
	overwriteChunkPages = 16
	readBackPages       = 64
)

// ingestState holds the generated inputs. Each op builds its own two
// platforms, because building them is part of what it measures; the
// pair set-up built stays referenced only so that live_heap_mb reads
// what two empty platforms hold.
type ingestState struct {
	empty   [2]*biscuit.System
	payload []byte // fillChunkPages+overwriteChunkPages pages of seeded bytes
	pages   int    // scratch file size in pages: a quarter of the device
	starts  []int  // first page of every overwrite, confined to the hot half
	slots   []int  // payload page each overwrite starts reading from
	sample  []int  // pages read back after the overwrites

	gcRounds   []int64
	writeAmp   []float64
	mismatches int
}

// buildIngest draws the payload and the overwrite schedule from the
// seed. It also builds both platforms once, so that setup_s sees the
// cost of platform construction on this workload too.
func buildIngest(c *ctx) *ingestState {
	st := &ingestState{}
	c.rec.do("setup.build", func() {
		st.empty = [2]*biscuit.System{biscuit.NewSystem(c.sc.benchConfig()), biscuit.NewSystem(c.sc.scratchConfig())}
	})
	c.rec.do("setup.load", func() {
		ftl := st.empty[1].Plat.FTL
		ps := ftl.PageSize()
		rng := biscuit.SeededRand(c.seed)
		st.payload = make([]byte, (fillChunkPages+overwriteChunkPages)*ps)
		rng.Read(st.payload)
		st.pages = int(ftl.Capacity()/4) / ps
		hot := st.pages / 2
		for i := 0; i < c.sc.overwriteX*st.pages/overwriteChunkPages; i++ {
			st.starts = append(st.starts, rng.Intn(hot-overwriteChunkPages))
			st.slots = append(st.slots, rng.Intn(fillChunkPages))
		}
		for i := 0; i < readBackPages; i++ {
			st.sample = append(st.sample, rng.Intn(st.pages))
		}
	})
	return st
}

func (st *ingestState) reference(c *ctx) {}

func (st *ingestState) batch(c *ctx, obs *observer) batchOut {
	var o batchOut
	var loadSys, scratch *biscuit.System
	// The two halves are timed apart: each is its own region between
	// two clock probes.
	c.rec.do("op", func() {
		m := startMeter()
		c.rec.do("op.load", func() {
			loadSys = biscuit.NewSystem(c.sc.benchConfig())
			if obs != nil {
				obs.hook(loadSys.Env)
			}
			start := loadSys.Env.Now()
			loadTPCH(loadSys, c.sc.ingestSF, c.seed)
			o.simNs += int64(loadSys.Env.Now() - start)
		})
		o.measured = m.stop()
		m = startMeter()
		c.rec.do("op.overwrite", func() {
			scratch = biscuit.NewSystem(c.sc.scratchConfig())
			if obs != nil {
				obs.attachSystem(scratch)
			}
			o.simNs += int64(scratch.Run(func(h *biscuit.Host) { st.write(h) }))
		})
		o.measured = o.measured.plus(m.stop())
	})
	o.ops = 1
	if obs != nil {
		// Both platforms are fresh, so their totals are the op's own.
		o.sys = []*biscuit.System{loadSys, scratch}
		o.counts = snapshot(o.sys)
		detachSystem(scratch)
	}

	// Host pages are the file's data pages; the file system's own
	// metadata writes count as amplification.
	_, programs, _, _ := scratch.Plat.Array.Stats()
	hostPages := st.pages + len(st.starts)*overwriteChunkPages
	st.writeAmp = append(st.writeAmp, float64(programs)/float64(hostPages))
	rounds, _ := scratch.Plat.FTL.GCStats()
	st.gcRounds = append(st.gcRounds, rounds)
	bad := st.readBack(scratch, false)
	st.mismatches += bad
	if bad > 0 {
		o.failed = 1
	}
	if c.corruptRef {
		st.mismatches += st.readBack(scratch, true)
	}
	return o
}

// write fills the scratch file in 1 MiB chunks, then overwrites random
// 16-page chunks of its hot half.
func (st *ingestState) write(h *biscuit.Host) {
	ps := h.System().Plat.FTL.PageSize()
	f, err := h.SSD().CreateFile("scratch")
	if err != nil {
		panic(fmt.Sprintf("ingest: create: %v", err))
	}
	for pg := 0; pg < st.pages; pg += fillChunkPages {
		n := min(fillChunkPages, st.pages-pg)
		if err := h.SSD().WriteFile(f, int64(pg*ps), st.payload[:n*ps]); err != nil {
			panic(fmt.Sprintf("ingest: fill: %v", err))
		}
	}
	for i, pg := range st.starts {
		src := st.payload[st.slots[i]*ps:][:overwriteChunkPages*ps]
		if err := h.SSD().WriteFile(f, int64(pg*ps), src); err != nil {
			panic(fmt.Sprintf("ingest: overwrite: %v", err))
		}
	}
}

// readBack replays the write schedule into a shadow of which payload
// page every file page last received, reads the sampled pages through
// the host path and counts the ones that differ.
func (st *ingestState) readBack(sys *biscuit.System, corrupt bool) int {
	shadow := make([]int, st.pages)
	for pg := range shadow {
		shadow[pg] = pg % fillChunkPages
	}
	for i, pg := range st.starts {
		for k := 0; k < overwriteChunkPages; k++ {
			shadow[pg+k] = st.slots[i] + k
		}
	}
	if corrupt {
		shadow[st.sample[0]] = (shadow[st.sample[0]] + 1) % fillChunkPages
	}
	bad := 0
	sys.Run(func(h *biscuit.Host) {
		ps := sys.Plat.FTL.PageSize()
		f, err := h.SSD().OpenFile("scratch", true)
		if err != nil {
			panic(fmt.Sprintf("ingest: open: %v", err))
		}
		buf := make([]byte, ps)
		for _, pg := range st.sample {
			if err := h.SSD().ReadFileConv(f, int64(pg*ps), buf); err != nil {
				panic(fmt.Sprintf("ingest: read back page %d: %v", pg, err))
			}
			if !bytes.Equal(buf, st.payload[shadow[pg]*ps:][:ps]) {
				bad++
			}
		}
	})
	return bad
}

func (st *ingestState) report(c *ctx, r *result, untraced []batchOut, counted *batchOut) {
	minRounds := st.gcRounds[0]
	for _, g := range st.gcRounds {
		minRounds = min(minRounds, g)
	}
	r.check("ingest.gc_ran", minRounds > 0, "an op finished with %d GC rounds", minRounds)
	r.check("ingest.read_back", st.mismatches == 0, "%d sampled pages read back different from what was written", st.mismatches)
	r.pin("scratch_pages", "%d", st.pages)
	r.put("sim_write_amp", st.writeAmp[0], st.pages+len(st.starts)*overwriteChunkPages)
	r.put("failed_ops_share", float64(r.failed)/float64(r.attempted), r.attempted)
	if counted != nil {
		ingestKernels(c, r, st)
	}
}
