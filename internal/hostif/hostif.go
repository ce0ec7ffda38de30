// Package hostif models the NVMe host interface of the SSD: paired
// submission/completion queues over a full-duplex PCIe Gen.3 ×4 link
// (3.2 GB/s per direction), with driver and doorbell costs on the host
// CPU and command-handling costs in device firmware.
//
// Conventional ("Conv") I/O traverses this interface; Biscuit-internal
// reads do not — that asymmetry is the root of both the latency gap in
// Table III and the bandwidth gap in Fig. 7 of the paper.
package hostif

import (
	"fmt"

	"biscuit/internal/cpu"
	"biscuit/internal/fault"
	"biscuit/internal/ftl"
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Config places the SSD on the host. The zero value is the paper's
// direct-attached organization.
type Config struct {
	// NetBW/NetLatency, when NetBW > 0, place a network hop between the
	// host and the storage node holding the SSD — the paper's Fig. 1(c)
	// "Networked" organization (e.g. a shared SAN or a 10 GbE storage
	// server). Every command, DMA and channel message then crosses the
	// network in series with the PCIe link.
	NetBW      float64
	NetLatency sim.Time
}

// The paper platform's link and protocol costs (Table I, §V-A),
// calibrated so that a 4 KiB Conv read costs ~14 µs more than the
// Biscuit-internal read (Table III).
const (
	linkBW       float64  = 3.2e9                // bytes/s per direction (PCIe Gen3 x4)
	linkLatency  sim.Time = 900 * sim.Nanosecond // one-way propagation
	commandBytes int      = 64                   // SQ entry size on the wire
	doorbellCost sim.Time = 400 * sim.Nanosecond // MMIO doorbell write latency

	hostSubmitCycles   float64 = 7500  // host driver, build command + ring doorbell: 3.0 us @ 2.5 GHz
	hostCompleteCycles float64 = 15000 // host driver, interrupt + completion handling: 6.0 us @ 2.5 GHz
	deviceCmdCycles    float64 = 1500  // firmware, fetch/parse/queue a host command: 2.0 us @ 750 MHz

	maxQueueDepth int = 256 // admission limit for outstanding host commands

	// cmdRetries bounds how many times a failed host command (timeout or
	// media error) is reissued; retryBackoff is the first reissue delay,
	// doubled per attempt (exponential backoff in sim-time).
	cmdRetries   int      = 4
	retryBackoff sim.Time = 10 * sim.Microsecond
)

// Interface is the host-visible NVMe endpoint of the device.
type Interface struct {
	env     *sim.Env
	ftl     *ftl.FTL
	hostCPU *cpu.CPU
	devCPU  *cpu.CPU // firmware core(s) handling host commands
	down    *sim.Link
	up      *sim.Link
	netDown *sim.Link // nil in the direct-attached organization
	netUp   *sim.Link
	qd      *sim.Resource
	inj     *fault.Injector // nil = perfectly reliable interface

	tr    *trace.Tracer // nil = tracing disabled
	cmdTk trace.TrackID // async track carrying overlapping command spans
	hists *stats.Histograms

	gQD       *stats.Gauge // occupied NVMe queue slots (nil = telemetry off)
	gInflight *stats.Gauge // host commands between issue and completion

	cmds, bytesUp, bytesDown int64
	timeouts, stalls, redos  int64
}

// New creates an interface in front of f. hostCPU is charged for driver
// work; devCPU for device-side command handling.
func New(env *sim.Env, cfg Config, f *ftl.FTL, hostCPU, devCPU *cpu.CPU) *Interface {
	i := &Interface{
		env:     env,
		ftl:     f,
		hostCPU: hostCPU,
		devCPU:  devCPU,
		down:    env.NewLink("pcie-h2d", linkBW, linkLatency, 0),
		up:      env.NewLink("pcie-d2h", linkBW, linkLatency, 0),
		qd:      env.NewResource("nvme-qd", maxQueueDepth),
	}
	if cfg.NetBW > 0 {
		i.netDown = env.NewLink("net-h2d", cfg.NetBW, cfg.NetLatency, 0)
		i.netUp = env.NewLink("net-d2h", cfg.NetBW, cfg.NetLatency, 0)
	}
	return i
}

// SetInjector installs the fault injector consulted for command
// timeouts and backpressure stalls. Nil (the default) disables both.
func (i *Interface) SetInjector(in *fault.Injector) { i.inj = in }

// SetTracer installs the tracer receiving the NVMe command lifecycle:
// one async span per command on the "host/nvme" track (commands
// overlap under queue depth), with retry/timeout/stall instants.
func (i *Interface) SetTracer(tr *trace.Tracer) {
	i.tr = tr
	if tr != nil {
		i.cmdTk = tr.Track("host/nvme")
	}
}

// SetHists installs the registry receiving per-command latency
// distributions ("hostif.read", "hostif.write"). Nil disables.
func (i *Interface) SetHists(h *stats.Histograms) { i.hists = h }

// SetGauges installs the telemetry gauges: "hostif.qd" tracks occupied
// queue slots, "hostif.inflight" tracks host commands between issue and
// completion (retries included). Nil disables.
func (i *Interface) SetGauges(g *stats.Gauges) {
	i.gQD = g.G("hostif.qd")
	i.gInflight = g.G("hostif.inflight")
}

// stall models an injected backpressure hiccup on the host link: the
// transfer holds for the plan's stall delay before data moves.
func (i *Interface) stall(p *sim.Proc, dir string) {
	if i.inj.Stall(func() string { return "hostif." + dir }) {
		i.stalls++
		i.tr.Instant(i.cmdTk, "link.stall").ArgStr("dir", dir)
		p.Sleep(i.inj.Plan().StallDelay)
	}
}

// xferDown moves n bytes host->device across the network hop (if any)
// and the PCIe link in series.
func (i *Interface) xferDown(p *sim.Proc, n int64) {
	i.stall(p, "h2d")
	if i.netDown != nil {
		i.netDown.Transfer(p, n)
	}
	i.down.Transfer(p, n)
}

// xferUp moves n bytes device->host.
func (i *Interface) xferUp(p *sim.Proc, n int64) {
	i.stall(p, "d2h")
	i.up.Transfer(p, n)
	if i.netUp != nil {
		i.netUp.Transfer(p, n)
	}
}

// Stats reports command count and bytes moved in each direction.
func (i *Interface) Stats() (cmds, bytesToHost, bytesToDevice int64) {
	return i.cmds, i.bytesUp, i.bytesDown
}

// FaultStats reports fault-handling activity: commands lost to injected
// timeouts, backpressure stalls absorbed, and commands reissued by the
// retry policy.
func (i *Interface) FaultStats() (timeouts, stalls, retries int64) {
	return i.timeouts, i.stalls, i.redos
}

// submit performs the host-side command issue sequence: driver work,
// doorbell, command fetch by the device. An injected timeout models a
// command lost between doorbell and fetch: the host waits out the
// plan's timeout delay, frees the queue slot and reports
// fault.ErrTimeout for the retry policy to handle.
func (i *Interface) submit(p *sim.Proc) error {
	i.qd.Acquire(p)
	i.gQD.Add(1)
	i.hostCPU.Exec(p, hostSubmitCycles)
	p.Sleep(doorbellCost)
	if i.inj.Timeout(func() string { return "hostif.submit" }) {
		i.timeouts++
		i.tr.Instant(i.cmdTk, "cmd.timeout")
		p.Sleep(i.inj.Plan().TimeoutDelay)
		i.gQD.Add(-1)
		i.qd.Release()
		return fmt.Errorf("hostif: %w", fault.ErrTimeout)
	}
	i.xferDown(p, int64(commandBytes))
	i.devCPU.Exec(p, deviceCmdCycles)
	i.cmds++
	return nil
}

// complete performs the completion sequence back to the host.
func (i *Interface) complete(p *sim.Proc) {
	i.xferUp(p, int64(commandBytes)) // CQ entry
	i.hostCPU.Exec(p, hostCompleteCycles)
	i.gQD.Add(-1)
	i.qd.Release()
}

// cmdKind names one kind of conventional block command in error text,
// on the trace and in the latency histograms.
type cmdKind struct{ what, span, hist string }

var (
	readCmd  = cmdKind{"read", "nvme.read", "hostif.read"}
	writeCmd = cmdKind{"write", "nvme.write", "hostif.write"}
)

// command is the one envelope around a conventional block command: an
// async span, the in-flight gauge and the latency histogram around once
// run under the bounded retry policy. A failed command (timeout or
// media error) is reissued after an exponential sim-time backoff, up to
// cmdRetries extra attempts. Media retries at this level roll fresh FTL
// read-retries, which is why the conventional path survives fault plans
// that defeat a single internal read.
func (i *Interface) command(p *sim.Proc, k cmdKind, off int64, n int, once func() error) error {
	sp := i.tr.BeginAsync(i.cmdTk, k.span).Arg("off", off).Arg("bytes", int64(n))
	i.gInflight.Add(1)
	start := p.Now()
	backoff := retryBackoff
	var err error
	for try := 0; ; try++ {
		err = once()
		if err == nil || try >= cmdRetries {
			break
		}
		i.redos++
		i.tr.Instant(i.cmdTk, "cmd.retry").Arg("try", int64(try+1)).Arg("backoff_ns", int64(backoff))
		p.Sleep(backoff)
		backoff *= 2
	}
	i.hists.Observe(k.hist, int64(p.Now()-start))
	i.gInflight.Add(-1)
	sp.End()
	if err != nil {
		return fmt.Errorf("hostif: %s failed after %d attempts: %w", k.what, cmdRetries+1, err)
	}
	return nil
}

// Read performs one conventional host read of len(buf) bytes at byte
// offset off: submit, media read (parallel across channels via the FTL),
// DMA to host, complete — reissued on failure per the retry policy.
func (i *Interface) Read(p *sim.Proc, off int64, buf []byte) error {
	return i.command(p, readCmd, off, len(buf), func() error { return i.readOnce(p, off, buf) })
}

func (i *Interface) readOnce(p *sim.Proc, off int64, buf []byte) error {
	if err := i.submit(p); err != nil {
		return err
	}
	err := i.ftl.ReadRangeAsyncInto(p, off, buf).Wait(p)
	if err == nil {
		i.xferUp(p, int64(len(buf)))
		i.bytesUp += int64(len(buf))
	}
	i.complete(p) // an error status still posts a CQ entry
	return err
}

// ReadAsync issues a conventional read without blocking the caller and
// returns its completion. Outstanding reads overlap, which is how
// queue-depth-32 reaches link saturation at small request sizes (Fig. 7).
func (i *Interface) ReadAsync(p *sim.Proc, off int64, buf []byte) *sim.Completion {
	done := sim.NewCompletion(i.env, 1)
	i.env.Spawn("nvme-read", func(rp *sim.Proc) {
		done.Done(i.Read(rp, off, buf))
	})
	return done
}

// Write performs one conventional host write: submit, DMA from host,
// media program, complete — reissued on failure per the retry policy
// (rewriting the same logical pages is idempotent in a page-mapped FTL).
func (i *Interface) Write(p *sim.Proc, off int64, data []byte) error {
	return i.command(p, writeCmd, off, len(data), func() error { return i.writeOnce(p, off, data) })
}

func (i *Interface) writeOnce(p *sim.Proc, off int64, data []byte) error {
	if err := i.submit(p); err != nil {
		return err
	}
	i.xferDown(p, int64(len(data)))
	i.bytesDown += int64(len(data))
	err := i.ftl.WriteRange(p, off, data)
	i.complete(p)
	return err
}

// Message moves an opaque payload between host and device outside the
// block-I/O path; the Biscuit channel manager uses it for control and
// data channels. Direction "up" is device-to-host.
func (i *Interface) Message(p *sim.Proc, up bool, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("hostif: negative message size %d", bytes))
	}
	n := int64(commandBytes) + bytes
	if up {
		i.bytesUp += bytes
		i.xferUp(p, n)
	} else {
		i.bytesDown += bytes
		i.xferDown(p, n)
	}
}
