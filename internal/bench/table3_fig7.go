package bench

import (
	"fmt"
	"io"

	"biscuit"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
)

// Table3 reproduces Table III: latency of one 4 KiB read, conventional
// host path vs Biscuit-internal path. The two means are backed by the
// full distributions the platform histograms recorded during the run.
type Table3 struct {
	Conv, Biscuit sim.Time

	ConvLat    stats.LatencySummary `json:"conv_lat"`    // "hostif.read"
	BiscuitLat stats.LatencySummary `json:"biscuit_lat"` // "dev.internal.read"
}

// paperTable3 is Table III as the paper prints it.
var paperTable3 = Table3{Conv: sim.FromMicros(90.0), Biscuit: sim.FromMicros(75.9)}

// WriteMarkdown renders both latencies and their gap beside the paper's.
func (t Table3) WriteMarkdown(w io.Writer) {
	row := func(name string, t Table3) []string {
		return []string{name, num(t.Conv.Micros()), num(t.Biscuit.Micros()), num((t.Conv - t.Biscuit).Micros())}
	}
	table(w, []string{"µs", "Conv", "Biscuit", "host-path gap"}, row("paper", paperTable3), row("measured", t))
}

// RunTable3 measures single 4 KiB reads on an otherwise idle system.
func RunTable3() Table3 {
	const iters = 32
	var out Table3
	sys := newSystem()
	sys.Run(func(h *biscuit.Host) {
		plat := h.System().Plat
		base := preload(h, "t3.bin", 1<<20)

		var conv, internal sim.Time
		buf := make([]byte, 4096)
		for i := 0; i < iters; i++ {
			off := base + int64(i)*4096
			conv += timeIt(h, func() { plat.HostIF.Read(h.Proc(), off, buf) })
		}
		for i := 0; i < iters; i++ {
			off := base + int64(iters+i)*4096
			internal += timeIt(h, func() { plat.InternalRead(h.Proc(), off, 4096) })
		}
		out.Conv = conv / iters
		out.Biscuit = internal / iters
		out.ConvLat = plat.Hists.Get("hostif.read").Summary()
		out.BiscuitLat = plat.Hists.Get("dev.internal.read").Summary()
	})
	return out
}

// gbps is n bytes over a virtual duration, in GB/s.
func gbps(n int, el sim.Time) float64 { return float64(n) / el.Seconds() / 1e9 }

// readWindowed issues n asynchronous reads, at most qd in flight, and
// waits for them all.
func readWindowed(h *biscuit.Host, n, qd int, issue func(i int) *sim.Completion) {
	inflight := make([]*sim.Completion, 0, qd)
	for i := 0; i < n; i++ {
		if len(inflight) >= qd {
			must("read", inflight[0].Wait(h.Proc()))
			inflight = inflight[1:]
		}
		inflight = append(inflight, issue(i))
	}
	for _, c := range inflight {
		must("read", c.Wait(h.Proc()))
	}
}

// Fig7Point is one bandwidth sample: request size vs achieved GB/s.
type Fig7Point struct {
	ReqSize int
	Conv    float64 // host path, GB/s
	Biscuit float64 // internal path
	Matcher float64 // internal path through the pattern-matcher IPs
}

// Fig7 reproduces Fig. 7's two panels. Lat carries the run's latency
// distributions ("hostif.read" spans every Conv request of both panels,
// including the queued QD-32 ones) so the bandwidth curves come with
// their percentile tails.
type Fig7 struct {
	Sync  []Fig7Point // one request at a time
	Async []Fig7Point // queue depth 32

	Lat []stats.NamedSummary `json:"lat"`
}

// WriteMarkdown renders both panels, one request size per row.
func (f Fig7) WriteMarkdown(w io.Writer) {
	var rows [][]string
	for i, s := range f.Sync {
		a := f.Async[i]
		rows = append(rows, []string{fmt.Sprintf("%d KiB", s.ReqSize>>10),
			num(s.Conv), num(s.Biscuit), num(s.Matcher), num(a.Conv), num(a.Biscuit), num(a.Matcher)})
	}
	table(w, []string{"GB/s", "sync Conv", "sync Biscuit", "sync w/ PM", "QD 32 Conv", "QD 32 Biscuit", "QD 32 w/ PM"}, rows...)
}

// RunFig7 sweeps request sizes for synchronous and asynchronous (QD 32)
// reads over all three paths.
func RunFig7() Fig7 {
	sizes := []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	const span = 32 << 20 // preloaded region
	var out Fig7
	sys := newSystem()
	sys.Run(func(h *biscuit.Host) {
		plat := h.System().Plat
		base := preload(h, "f7.bin", span)

		for _, size := range sizes {
			reqs := max(1, min(64, span/size))
			off := func(i int) int64 { return base + int64(i*size) }
			buf := make([]byte, size)
			// bw is the bandwidth of reqs requests issued by fn.
			bw := func(fn func()) float64 { return gbps(reqs*size, timeIt(h, fn)) }
			through := func(p *sim.Proc, i int) error {
				return plat.FTL.ReadRangeThrough(p, off(i), size, plat.Cfg.PatternMatcherOverhead, func(int64, []byte) {})
			}

			// Synchronous: one outstanding request.
			each := func(read func(i int) error) func() {
				return func() {
					for i := 0; i < reqs; i++ {
						must("read", read(i))
					}
				}
			}
			out.Sync = append(out.Sync, Fig7Point{ReqSize: size,
				Conv: bw(each(func(i int) error { return plat.HostIF.Read(h.Proc(), off(i), buf) })),
				Biscuit: bw(each(func(i int) error {
					_, err := plat.FTL.ReadRange(h.Proc(), off(i), size)
					return err
				})),
				Matcher: bw(each(func(i int) error { return through(h.Proc(), i) })),
			})

			// Asynchronous: up to 32 outstanding requests; the matcher
			// path overlaps its commands by issuing each request on its
			// own process.
			const qd = 32
			out.Async = append(out.Async, Fig7Point{ReqSize: size,
				Conv: bw(func() {
					readWindowed(h, reqs, qd, func(i int) *sim.Completion { return plat.HostIF.ReadAsync(h.Proc(), off(i), buf) })
				}),
				Biscuit: bw(func() {
					readWindowed(h, reqs, qd, func(i int) *sim.Completion { return plat.FTL.ReadRangeAsyncInto(h.Proc(), off(i), buf) })
				}),
				Matcher: bw(func() {
					done := make([]*sim.Event, reqs)
					for i := range done {
						done[i] = h.System().Env.NewEvent()
						h.System().Env.Spawn("f7-pm", func(p *sim.Proc) {
							must("read", through(p, i))
							done[i].Fire()
						})
					}
					for _, ev := range done {
						h.Proc().Wait(ev)
					}
				}),
			})
		}
	})
	out.Lat = sys.Plat.Hists.Snapshot()
	return out
}
