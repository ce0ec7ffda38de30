package sim

// Resource is a counted resource with a FIFO wait queue (a k-server
// station). Acquire blocks the calling process while all servers are
// busy; Release hands the freed server to the longest-waiting process.
//
// A Resource also accumulates a busy-time integral so that utilization
// (and, downstream, power draw) can be derived from any window of the
// simulation.
type Resource struct {
	env      *Env
	name     string
	capacity int
	inUse    int
	// waiters[head:] is the FIFO wait queue. Dequeuing advances head
	// instead of reslicing so the backing array is reused once drained:
	// the steady-state acquire/wait/release cycle never allocates.
	waiters []*Proc
	head    int

	lastChange Time
	busyInt    float64 // integral of inUse over time, in server-ns
}

// NewResource creates a resource with the given number of servers.
func (e *Env) NewResource(name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{env: e, name: name, capacity: capacity}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of servers.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of servers currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.head }

func (r *Resource) account() {
	now := r.env.now
	r.busyInt += float64(r.inUse) * float64(now-r.lastChange)
	r.lastChange = now
}

// BusyTime returns the accumulated busy integral in server-seconds.
func (r *Resource) BusyTime() float64 {
	r.account()
	return r.busyInt / float64(Second)
}

// Utilization returns mean utilization (0..1) over [since, now].
func (r *Resource) Utilization(since Time, busyAtSince float64) float64 {
	elapsed := r.env.now - since
	if elapsed <= 0 {
		return 0
	}
	return (r.BusyTime() - busyAtSince) / float64(r.capacity) / elapsed.Seconds()
}

// Acquire takes one server, blocking p in FIFO order while none is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.QueueLen() == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.park()
	// The releaser already transferred the server to us (see Release).
}

// Release frees one server, waking the longest waiter if any. The freed
// server is transferred directly to that waiter, so no Acquire made
// before the waiter resumes can overtake it.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource " + r.name)
	}
	if r.QueueLen() > 0 {
		w := r.waiters[r.head]
		r.waiters[r.head] = nil
		r.head++
		if r.head == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.head = 0
		}
		w.wake() // server stays accounted as in use
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a server, holds it for duration d and releases it.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// Link models a point-to-point transfer medium: FCFS serialization at a
// fixed byte rate plus a propagation latency that overlaps with the next
// transfer (store-and-forward pipe).
type Link struct {
	r       *Resource
	bytesPS float64
	latency Time
}

// NewLink creates a link with the given serialization rate (bytes/s)
// and propagation latency.
func (e *Env) NewLink(name string, bytesPerSec float64, latency Time) *Link {
	return &Link{r: e.NewResource(name, 1), bytesPS: bytesPerSec, latency: latency}
}

// Transfer moves n bytes across the link: the caller occupies the link
// for the serialization time, then waits out the propagation latency
// without holding the link.
func (l *Link) Transfer(p *Proc, n int64) {
	l.r.Acquire(p)
	p.Sleep(TransferTime(n, l.bytesPS))
	l.r.Release()
	p.Sleep(l.latency)
}
