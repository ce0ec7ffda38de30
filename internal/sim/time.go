// Package sim provides a deterministic discrete-event simulation kernel.
//
// All Biscuit substrates (NAND array, FTL, host interface, device CPUs)
// advance a shared virtual clock through this kernel instead of wall time,
// which makes every experiment in the repository reproducible bit-for-bit.
//
// The kernel follows the classic process-interaction style: simulation
// processes are ordinary Go functions run as coroutines of the scheduler:
// only one executes at a time and control switches back to the scheduler
// whenever a process blocks (Sleep, Wait, resource acquisition). Events
// that are scheduled for the same instant fire in scheduling order, so a
// run is fully deterministic.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is a distinct type (not time.Duration) to keep virtual
// and wall-clock quantities from mixing accidentally.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMicros converts floating-point microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// FromDuration converts a wall-clock duration to virtual time. It is
// the one sanctioned crossing from time.Duration to Time: both are
// int64 nanosecond counts, but writing sim.Time(d) elsewhere defeats
// the type separation (and is flagged by the simtimemix analyzer).
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// AsDuration converts a virtual time to a wall-clock duration, e.g. to
// format a simulated latency with time.Duration's printer. It is the
// sanctioned inverse of FromDuration.
func (t Time) AsDuration() time.Duration { return time.Duration(int64(t)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// TransferTime returns the serialization delay of moving n bytes over a
// medium sustaining bytesPerSec. A non-positive rate yields zero delay.
func TransferTime(n int64, bytesPerSec float64) Time {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) / bytesPerSec * float64(Second))
}
