// Package loadgen draws the open-loop arrival processes the serving
// layer (internal/serve) schedules against.
package loadgen

import (
	"math/rand"

	"biscuit/internal/sim"
)

// ArrivalSpec describes one tenant's open-loop offered process.
type ArrivalSpec struct {
	// RateQPS is the offered arrival rate in queries per simulated
	// second.
	RateQPS float64
	// Deterministic spaces arrivals exactly 1/RateQPS apart instead of
	// drawing Poisson interarrivals.
	Deterministic bool
}

// Arrivals pre-draws the arrival times of an open-loop process within
// [0, window). Open-loop means the offered process is independent of
// service — drawing every arrival up front both enforces that and makes
// the offered load a pure function of (spec, window, rng), so the
// serving layer can pin whole windows in determinism tests.
func Arrivals(spec ArrivalSpec, window sim.Time, rng *rand.Rand) []sim.Time {
	var out []sim.Time
	period := 1.0 / spec.RateQPS // seconds
	at := 0.0
	for {
		if spec.Deterministic {
			at += period
		} else {
			at += rng.ExpFloat64() * period
		}
		t := sim.FromSeconds(at)
		if t >= window {
			return out
		}
		out = append(out, t)
	}
}
