// Package ports provides the data-plane primitives of Biscuit's I/O
// ports (paper §III-C, §IV-B): typed bounded queues with blocking
// put/get, the Packet wire type used by host-to-device and
// inter-application ports, and (de)serialization helpers.
//
// The queue itself is policy-free; the connection flavours (inter-SSDlet,
// host-to-device, inter-application) with their latency contracts are
// assembled in internal/core.
package ports

import (
	"biscuit/internal/sim"
	"biscuit/internal/stats"
	"biscuit/internal/trace"
)

// Blocker abstracts "something that can block": a bare simulation
// process on the host side, or a device fiber that must release its core
// while blocked. All queue operations block through this interface.
type Blocker interface {
	// Proc returns the underlying simulation process.
	Proc() *sim.Proc
	// Block runs wait in a context where the blocker holds no exclusive
	// execution resource; wait may suspend the process.
	Block(wait func(p *sim.Proc))
}

// ProcBlocker adapts a bare simulation process (host-side thread) to the
// Blocker interface.
type ProcBlocker struct{ P *sim.Proc }

// Proc returns the wrapped process.
func (b ProcBlocker) Proc() *sim.Proc { return b.P }

// Block simply runs wait; a host thread holds nothing to release.
func (b ProcBlocker) Block(wait func(p *sim.Proc)) { wait(b.P) }

// Queue is a bounded FIFO with blocking semantics in virtual time. The
// zero value is not usable; create with NewQueue.
//
// A Queue supports any number of producers and consumers at the Go level;
// the single-producer/single-consumer restrictions of certain port types
// are enforced by the connection layer, matching the paper's rationale
// (the SSD lacks the synchronization primitives for MPMC host-facing
// queues, while same-core fibers need no locks at all).
type Queue[T any] struct {
	env      *sim.Env
	capacity int
	buf      []T
	closed   bool
	getters  []*sim.Event
	putters  []*sim.Event

	tr *trace.Tracer // nil = queue untraced
	tk trace.TrackID
	g  *stats.Gauge // occupancy gauge; nil = telemetry off
}

// NewQueue creates a bounded queue with the given capacity (>= 1).
func NewQueue[T any](env *sim.Env, capacity int) *Queue[T] {
	if capacity < 1 {
		panic("ports: queue capacity must be >= 1")
	}
	return &Queue[T]{env: env, capacity: capacity}
}

// Len returns the number of buffered elements.
func (q *Queue[T]) Len() int { return len(q.buf) }

// Instrument routes the queue's activity onto a trace track: an
// instant per element moved and an async span per blocking wait.
// Waits overlap (several producers or consumers can block at once), so
// the track carries async spans. A nil tracer reverts to untraced.
func (q *Queue[T]) Instrument(tr *trace.Tracer, tk trace.TrackID) {
	q.tr = tr
	q.tk = tk
}

// InstrumentGauge mirrors the queue's occupancy onto g after every
// element moved, so the telemetry sampler sees port depth over time. A
// nil gauge (the default) reverts to unobserved.
func (q *Queue[T]) InstrumentGauge(g *stats.Gauge) {
	q.g = g
	g.Set(int64(len(q.buf)))
}

func wakeOne(evs *[]*sim.Event) {
	if len(*evs) > 0 {
		(*evs)[0].Fire()
		*evs = (*evs)[1:]
	}
}

// Put appends v, blocking while the queue is full. It reports false if
// the queue is (or becomes) closed.
func (q *Queue[T]) Put(b Blocker, v T) bool {
	if len(q.buf) >= q.capacity && !q.closed {
		sp := q.tr.BeginAsync(q.tk, "put.wait")
		for len(q.buf) >= q.capacity && !q.closed {
			ev := q.env.NewEvent()
			q.putters = append(q.putters, ev)
			b.Block(func(p *sim.Proc) { p.Wait(ev) })
		}
		sp.End()
	}
	if q.closed {
		return false
	}
	q.buf = append(q.buf, v)
	q.g.Set(int64(len(q.buf)))
	q.tr.Instant(q.tk, "put")
	wakeOne(&q.getters)
	return true
}

// Get removes the head element, blocking while the queue is empty. It
// reports false when the queue is closed and drained — the stream-end
// signal consumers loop on.
func (q *Queue[T]) Get(b Blocker) (T, bool) {
	if len(q.buf) == 0 && !q.closed {
		sp := q.tr.BeginAsync(q.tk, "get.wait")
		for len(q.buf) == 0 && !q.closed {
			ev := q.env.NewEvent()
			q.getters = append(q.getters, ev)
			b.Block(func(p *sim.Proc) { p.Wait(ev) })
		}
		sp.End()
	}
	var zero T
	if len(q.buf) == 0 {
		return zero, false
	}
	v := q.buf[0]
	q.buf[0] = zero
	q.buf = q.buf[1:]
	q.g.Set(int64(len(q.buf)))
	q.tr.Instant(q.tk, "get")
	wakeOne(&q.putters)
	return v, true
}

// Close marks the stream ended: pending and future Puts fail, and Gets
// drain the remaining elements then report false. Closing twice is a
// no-op.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, ev := range q.getters {
		ev.Fire()
	}
	q.getters = nil
	for _, ev := range q.putters {
		ev.Fire()
	}
	q.putters = nil
}
