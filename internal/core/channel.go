package core

import (
	"biscuit/internal/fibers"
	"biscuit/internal/ports"
	"biscuit/internal/sim"
)

// ChannelManager mediates host<->device data transfer (paper §IV-B/C):
// it maintains one implicit control channel plus a bounded pool of data
// channels created on demand and recycled, each encapsulating the
// bounded queues behind a host-to-device port.
type ChannelManager struct {
	rt      *Runtime
	inUse   int
	waiters []*sim.Event

	created, reused, transfers int64
	bytesUp, bytesDown         int64
}

// dataChannelLimit bounds the data channels held by ports at once.
const dataChannelLimit = 32

// The channel manager's per-message costs, calibrated against Table II.
// The paper reports D2H 130.1 us and H2D 301.6 us round trips and
// attributes the asymmetry to the receiver side doing roughly twice the
// sender's work on the slow device cores.
const (
	chanMgrHostSendCycles float64 = 25000  // host send into a channel: 10 us @ 2.5 GHz
	chanMgrHostRecvCycles float64 = 45000  // host receive: 18 us
	chanMgrDevSendCycles  float64 = 70425  // device send: ~93.9 us @ 750 MHz
	chanMgrDevRecvCycles  float64 = 199673 // device receive, ~2× the send work: ~266 us
)

// Stats reports channel pool and traffic counters.
func (cm *ChannelManager) Stats() (created, reused, transfers, bytesUp, bytesDown int64) {
	return cm.created, cm.reused, cm.transfers, cm.bytesUp, cm.bytesDown
}

// InUse returns the number of data channels currently held by ports.
func (cm *ChannelManager) InUse() int { return cm.inUse }

// acquire takes a data channel from the pool, blocking p if the pool is
// exhausted — "to limit the total number of channels simultaneously
// used" (§IV-B).
func (cm *ChannelManager) acquire(p *sim.Proc) {
	for cm.inUse >= dataChannelLimit {
		ev := cm.rt.Env().NewEvent()
		cm.waiters = append(cm.waiters, ev)
		p.Wait(ev)
	}
	cm.inUse++
	if cm.created < int64(cm.inUse) {
		cm.created++
	} else {
		cm.reused++
	}
}

func (cm *ChannelManager) release() {
	cm.inUse--
	if len(cm.waiters) > 0 {
		cm.waiters[0].Fire()
		cm.waiters = cm.waiters[1:]
	}
}

// pumpUp moves packets from the device-side queue up to the host-side
// queue until either closes, charging the asymmetric channel-manager
// costs measured in Table II, then ends the host's stream.
func (cm *ChannelManager) pumpUp(f *fibers.Fiber, devQ *ports.Queue[any], hostQ *ports.Queue[ports.Packet]) {
	plat := cm.rt.Plat
	for {
		v, ok := devQ.Get(f)
		if !ok {
			break
		}
		pkt := v.(ports.Packet)
		f.Compute(chanMgrDevSendCycles)
		f.Block(func(tp *sim.Proc) {
			plat.HostIF.Message(tp, true, int64(pkt.Len()))
			plat.HostCPU.Exec(tp, chanMgrHostRecvCycles)
		})
		cm.transfers++
		cm.bytesUp += int64(pkt.Len())
		if !hostQ.Put(f, pkt) {
			break // host endpoint closed; stop pumping
		}
	}
	hostQ.Close()
}

// pumpDown is pumpUp's mirror: host-side queue down to the device-side
// queue, ending the consumer SSDlet's stream when the host closes.
func (cm *ChannelManager) pumpDown(f *fibers.Fiber, devQ *ports.Queue[any], hostQ *ports.Queue[ports.Packet]) {
	plat := cm.rt.Plat
	for {
		pkt, ok := hostQ.Get(f)
		if !ok {
			break
		}
		f.Block(func(tp *sim.Proc) {
			plat.HostIF.Message(tp, false, int64(pkt.Len()))
		})
		f.Compute(chanMgrDevRecvCycles)
		cm.transfers++
		cm.bytesDown += int64(pkt.Len())
		if !devQ.Put(f, pkt) {
			break // consumer side closed; stop pumping
		}
	}
	devQ.Close()
}

// bindHost is the one binder behind both host port directions: endpoint
// check, control round trip, a data channel from the pool, the
// host-side queue (traced and gauged under the port's name), the
// device-side connection, and a transport fiber in the application's
// group that runs the direction's pump and then hands the channel back.
// The port carries only Packet and is strictly SPSC (§III-C).
func (r *Runtime) bindHost(p *sim.Proc, pt PortRef, up bool) (*hostEnd, error) {
	dir := "h2d"
	if up {
		dir = "d2h"
	}
	slot, _, err := pt.endpoint(up, hostPort)
	if err != nil {
		return nil, err
	}
	r.control(p, 0)
	r.chanMgr.acquire(p)
	name := pt.li.name
	hostQ := ports.NewQueue[ports.Packet](r.Env(), defaultQueueCap)
	if tr := r.Plat.Trace; tr != nil {
		hostQ.Instrument(tr, tr.Track("port/"+name+"/"+dir))
	}
	hostQ.InstrumentGauge(r.Plat.Gauges.G("port." + name + "." + dir + ".depth"))
	cn := &conn{kind: hostPort, elem: PacketType, q: newAnyQueue(r.Env()), producers: 1}
	*slot = cn
	pt.li.app.group.Go(name+"/"+dir, func(f *fibers.Fiber) {
		if up {
			r.chanMgr.pumpUp(f, cn.q, hostQ)
		} else {
			r.chanMgr.pumpDown(f, cn.q, hostQ)
		}
		r.chanMgr.release()
	})
	return &hostEnd{rt: r, q: hostQ}, nil
}

// hostEnd is the host side of a bound host port; HostIn and HostOut are
// its two directions.
type hostEnd struct {
	rt *Runtime
	q  *ports.Queue[ports.Packet]
}

// HostIn is the host-side receive endpoint of a device-to-host port
// (what Application::connectTo returns in Code 3).
type HostIn hostEnd

// HostOut is the host-side send endpoint of a host-to-device port.
type HostOut hostEnd

// ConnectToHost binds an SSDlet's output port to a fresh device-to-host
// port and returns the host endpoint.
func (r *Runtime) ConnectToHost(p *sim.Proc, from PortRef) (*HostIn, error) {
	e, err := r.bindHost(p, from, true)
	return (*HostIn)(e), err
}

// ConnectFromHost binds an SSDlet's input port to a fresh host-to-device
// port and returns the host endpoint.
func (r *Runtime) ConnectFromHost(p *sim.Proc, to PortRef) (*HostOut, error) {
	e, err := r.bindHost(p, to, false)
	return (*HostOut)(e), err
}

// Get receives the next packet from the device, blocking the host
// process; ok is false at end of stream.
func (h *HostIn) Get(p *sim.Proc) (ports.Packet, bool) {
	return h.q.Get(ports.ProcBlocker{P: p})
}

// Put sends a packet to the device, charging the host-side channel
// manager send work; it reports false if the port has been closed.
func (h *HostOut) Put(p *sim.Proc, pkt ports.Packet) bool {
	h.rt.Plat.HostCPU.Exec(p, chanMgrHostSendCycles)
	return h.q.Put(ports.ProcBlocker{P: p}, pkt)
}

// Close ends the host-to-device stream; the device-side consumer sees
// end-of-stream after draining.
func (h *HostOut) Close() { h.q.Close() }
