// Package ports is a stub of the real queue layer, just deep enough
// for analyzer testdata to import it by path.
package ports

// Queue is a bounded queue whose Put/Get report closure via bool.
type Queue struct{ closed bool }

// Put enqueues v; false means the queue closed.
func (q *Queue) Put(v int) bool { return !q.closed }

// Get dequeues; false means closed and drained.
func (q *Queue) Get() (int, bool) { return 0, !q.closed }

// Close closes the queue. No status to consume.
func (q *Queue) Close() { q.closed = true }
