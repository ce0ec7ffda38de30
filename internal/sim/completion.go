package sim

// Completion is an Event that carries an error: the join point of a
// fan-out operation (a multi-page read, a batch of NVMe commands) whose
// parts can each fail. It counts down from n outstanding parts; when the
// last part reports Done the event fires, and the first non-nil error
// wins — mirroring how a storage stack reports one status per command
// regardless of how many media operations backed it.
type Completion struct {
	ev      *Event
	pending int
	err     error
}

// NewCompletion returns a completion waiting on n parts. With n <= 0 it
// is already fired (an empty operation trivially succeeds).
func NewCompletion(e *Env, n int) *Completion {
	c := &Completion{ev: e.NewEvent(), pending: n}
	if n <= 0 {
		c.ev.Fire()
	}
	return c
}

// Done reports one part finished with err (nil for success). The first
// non-nil error is retained; the event fires when all parts are done.
func (c *Completion) Done(err error) {
	if c.err == nil {
		c.err = err
	}
	c.pending--
	if c.pending <= 0 {
		c.ev.Fire()
	}
}

// Event exposes the underlying fired-when-complete event, e.g. to wait
// on several completions with WaitAll.
func (c *Completion) Event() *Event { return c.ev }

// Wait blocks p until every part is done and returns the first error.
func (c *Completion) Wait(p *Proc) error {
	p.Wait(c.ev)
	return c.err
}
