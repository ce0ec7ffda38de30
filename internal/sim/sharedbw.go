package sim

import "slices"

// SharedBW models a capacity shared by all concurrent users with exact
// egalitarian processor sharing: at any instant each active flow (plus
// each permanent background "load share") progresses at capacity/n.
//
// It is used for the host memory system: foreground scans and
// StreamBench-style background load threads contend for the same
// bandwidth, which is what degrades Conv performance under load in the
// paper's Tables IV and V while leaving Biscuit unaffected.
type SharedBW struct {
	env      *Env
	name     string
	capacity float64   // bytes per second
	load     int       // permanent background shares
	flows    []*psFlow // active flows in arrival order
	last     Time
	timerGen uint64

	busyInt float64 // integral of busy-fraction over ns
}

type psFlow struct {
	remaining float64 // bytes
	done      *Event
}

// NewSharedBW creates a processor-sharing bandwidth resource.
func (e *Env) NewSharedBW(name string, bytesPerSec float64) *SharedBW {
	return &SharedBW{env: e, name: name, capacity: bytesPerSec, last: e.now}
}

// Capacity returns the total bandwidth in bytes per second.
func (s *SharedBW) Capacity() float64 { return s.capacity }

// Load returns the number of permanent background shares.
func (s *SharedBW) Load() int { return s.load }

func (s *SharedBW) shares() int { return len(s.flows) + s.load }

// rate returns the current per-share byte rate.
func (s *SharedBW) rate() float64 {
	n := s.shares()
	if n == 0 {
		return 0
	}
	return s.capacity / float64(n)
}

// advance progresses all active flows to the current time.
func (s *SharedBW) advance() {
	now := s.env.now
	elapsed := float64(now-s.last) / float64(Second)
	if elapsed > 0 {
		if s.shares() > 0 {
			s.busyInt += float64(now - s.last)
		}
		if r := s.rate(); r > 0 {
			progressed := elapsed * r
			for _, f := range s.flows {
				f.remaining -= progressed
			}
		}
	}
	s.last = now
}

// completeReady fires and removes any flow that has finished, in
// arrival order, so tied flows wake their processes in the order they
// started.
func (s *SharedBW) completeReady() {
	const eps = 0.5 // bytes; tolerate float drift
	s.flows = slices.DeleteFunc(s.flows, func(f *psFlow) bool {
		if f.remaining > eps {
			return false
		}
		f.done.fire()
		return true
	})
}

// reschedule arms a timer for the earliest flow completion.
func (s *SharedBW) reschedule() {
	s.timerGen++
	if len(s.flows) == 0 {
		return
	}
	minRem := -1.0
	for _, f := range s.flows {
		if minRem < 0 || f.remaining < minRem {
			minRem = f.remaining
		}
	}
	dt := Time(minRem / s.rate() * float64(Second))
	if dt < 1 {
		dt = 1
	}
	gen := s.timerGen
	s.env.After(dt, func() {
		if gen != s.timerGen {
			return // superseded by a later arrival/departure/load change
		}
		s.advance()
		s.completeReady()
		s.reschedule()
	})
}

// SetLoad changes the number of permanent background shares, e.g. the
// number of StreamBench threads hammering host memory.
func (s *SharedBW) SetLoad(n int) {
	if n < 0 {
		panic("sim: negative load")
	}
	s.advance()
	s.load = n
	s.reschedule()
}

// Transfer moves n bytes as one processor-shared flow, blocking p until
// the flow completes. Zero-byte transfers return immediately.
func (s *SharedBW) Transfer(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	s.advance()
	f := &psFlow{remaining: float64(n), done: s.env.NewEvent()}
	s.flows = append(s.flows, f)
	s.reschedule()
	p.Wait(f.done)
}

// BusyTime returns accumulated busy seconds (any share active).
func (s *SharedBW) BusyTime() float64 {
	s.advance()
	s.reschedule()
	return s.busyInt / float64(Second)
}
