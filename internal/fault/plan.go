package fault

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"biscuit/internal/sim"
)

// Plan declares a deterministic fault campaign: per-operation fault
// probabilities, the latencies faults cost, and the seed the schedule is
// drawn from. The zero Plan injects nothing.
type Plan struct {
	// Seed drives every per-kind decision stream. Two injectors built
	// from equal plans produce identical fault schedules for identical
	// workloads.
	Seed int64

	// CorrectableProb is the per-page-read probability of an
	// ECC-correctable error: the read succeeds after CorrectableLatency
	// of extra decode time.
	CorrectableProb float64
	// UncorrectableProb is the per-page-read probability that ECC fails
	// and the read errors (subject to FTL read-retry).
	UncorrectableProb float64
	// ProgramFailProb is the per-page-program failure probability; the
	// FTL retires the block and remaps the write.
	ProgramFailProb float64
	// EraseFailProb is the per-block-erase failure probability; the FTL
	// retires the block.
	EraseFailProb float64
	// TimeoutProb is the per-host-command probability the command is
	// lost and must be retried after TimeoutDelay.
	TimeoutProb float64
	// StallProb is the per-transfer probability of a backpressure stall
	// on the host link costing StallDelay.
	StallProb float64

	// CorrectableLatency is the extra decode time of a correctable error.
	CorrectableLatency sim.Time
	// TimeoutDelay is how long a lost command occupies its queue slot
	// before the host gives up and retries.
	TimeoutDelay sim.Time
	// StallDelay is the length of one backpressure stall.
	StallDelay sim.Time

	// MaxFaults, when positive, caps the number of injected faults
	// (consequence events are exempt). Useful for single-shot scenarios.
	MaxFaults int

	// SilentProb is the per-page-program probability the page is left
	// silently damaged on the media: the program reports success, but
	// every later read of that physical page fails its end-to-end CRC
	// and surfaces as uncorrectable — a latent sector error that only
	// RAIN reconstruction (or patrol scrub, proactively) can heal.
	SilentProb float64

	// DieFailMask is a bitmask of dies (bit i = die i, up to 64 dies)
	// that fail hard: after DieFailAfter, every operation on a masked
	// die errors with ErrDieFail. Die failures are planned events, not
	// probabilistic ones, and are exempt from MaxFaults.
	DieFailMask uint64
	// DieFailAfter is the virtual time at which masked dies fail; zero
	// means the dies are dead from the start.
	DieFailAfter sim.Time
}

// DefaultPlan returns a moderately hostile plan: every fault kind is
// exercised on workloads of a few thousand operations, yet rates stay
// low enough that bounded retry almost always succeeds.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:               seed,
		CorrectableProb:    0.01,
		UncorrectableProb:  5e-4,
		ProgramFailProb:    5e-4,
		EraseFailProb:      2e-4,
		TimeoutProb:        5e-4,
		StallProb:          1e-3,
		CorrectableLatency: sim.FromDuration(60 * time.Microsecond),
		TimeoutDelay:       sim.FromDuration(5 * time.Millisecond),
		StallDelay:         sim.FromDuration(200 * time.Microsecond),
	}
}

// Enabled reports whether the plan can produce any fault.
func (p Plan) Enabled() bool {
	return p.CorrectableProb > 0 || p.UncorrectableProb > 0 ||
		p.ProgramFailProb > 0 || p.EraseFailProb > 0 ||
		p.TimeoutProb > 0 || p.StallProb > 0 ||
		p.SilentProb > 0 || p.DieFailMask != 0
}

// FailedDies returns the die indexes of DieFailMask in ascending order.
func (p Plan) FailedDies() []int {
	if p.DieFailMask == 0 {
		return nil
	}
	var dies []int
	for d := 0; d < 64; d++ {
		if p.DieFailMask&(1<<uint(d)) != 0 {
			dies = append(dies, d)
		}
	}
	return dies
}

// ValidateDies checks DieFailMask against a concrete array geometry:
// every masked die index must exist. The parse-time check only bounds
// indexes to [0,64); geometry is only known where the plan is armed.
func (p Plan) ValidateDies(dies int) error {
	for _, d := range p.FailedDies() {
		if d >= dies {
			return fmt.Errorf("fault: diefail die %d out of range (geometry has %d dies)", d, dies)
		}
	}
	return nil
}

// Validate checks that probabilities are in [0,1] and latencies and
// max-faults are non-negative.
func (p Plan) Validate() error {
	for _, k := range planKeys {
		switch f := k.field(&p).(type) {
		case *float64:
			if *f < 0 || *f > 1 || *f != *f {
				return fmt.Errorf("fault: %s probability %v outside [0,1]", k.name, *f)
			}
		case *sim.Time:
			if *f < 0 {
				return fmt.Errorf("fault: %s %v negative", k.name, *f)
			}
		case *int:
			if *f < 0 {
				return fmt.Errorf("fault: %s %d negative", k.name, *f)
			}
		}
	}
	return nil
}

// Plan text format: space- or comma-separated key=value pairs, e.g.
//
//	seed=42 uncorrectable=5e-4 correctable=0.01 correctable-latency=60us
//
// Probability keys take floats; latency keys take time.ParseDuration
// strings; seed and max-faults take integers. diefail takes a
// semicolon-separated list of die indexes (commas separate pairs), e.g.
// "diefail=3;7 diefail-after=10ms". Keys are matched case-insensitively.
// Unknown keys and duplicate keys are errors so that typos fail loudly
// instead of silently injecting nothing.
//
// planKeys declares every key once, in String's order. A key's kind is
// its field's pointer type: a probability (*float64), a latency
// (*sim.Time), an integer (*int64 seed, *int max-faults) or a die list
// (*uint64, the DieFailMask).
var planKeys = []planKey{
	{"seed", func(p *Plan) any { return &p.Seed }},
	{"correctable", func(p *Plan) any { return &p.CorrectableProb }},
	{"uncorrectable", func(p *Plan) any { return &p.UncorrectableProb }},
	{"program-fail", func(p *Plan) any { return &p.ProgramFailProb }},
	{"erase-fail", func(p *Plan) any { return &p.EraseFailProb }},
	{"timeout", func(p *Plan) any { return &p.TimeoutProb }},
	{"stall", func(p *Plan) any { return &p.StallProb }},
	{"silent", func(p *Plan) any { return &p.SilentProb }},
	{"diefail", func(p *Plan) any { return &p.DieFailMask }},
	{"correctable-latency", func(p *Plan) any { return &p.CorrectableLatency }},
	{"timeout-delay", func(p *Plan) any { return &p.TimeoutDelay }},
	{"stall-delay", func(p *Plan) any { return &p.StallDelay }},
	{"diefail-after", func(p *Plan) any { return &p.DieFailAfter }},
	{"max-faults", func(p *Plan) any { return &p.MaxFaults }},
}

type planKey struct {
	name  string
	field func(*Plan) any
}

// String renders the plan in the canonical ParsePlan format: keys in
// planKeys order, zero-valued fields omitted except the seed (the zero
// plan renders as "seed=0"). ParsePlan(p.String()) reproduces p exactly.
func (p Plan) String() string {
	var b strings.Builder
	for i, k := range planKeys {
		var v string
		zero := false
		switch f := k.field(&p).(type) {
		case *int64:
			v, zero = strconv.FormatInt(*f, 10), *f == 0
		case *int:
			v, zero = strconv.Itoa(*f), *f == 0
		case *float64:
			v, zero = strconv.FormatFloat(*f, 'g', -1, 64), *f == 0
		case *sim.Time:
			v, zero = f.AsDuration().String(), *f == 0
		case *uint64:
			dies := make([]string, 0, 4)
			for _, d := range p.FailedDies() {
				dies = append(dies, strconv.Itoa(d))
			}
			v, zero = strings.Join(dies, ";"), *f == 0
		}
		if i > 0 {
			if zero {
				continue
			}
			b.WriteByte(' ')
		}
		b.WriteString(k.name + "=" + v)
	}
	return b.String()
}

// ParsePlan parses the key=value plan format described above and
// validates the result.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	seen := map[string]bool{}
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == ','
	})
	for _, f := range fields {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q is not key=value", f)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		if seen[k] {
			return Plan{}, fmt.Errorf("fault: duplicate key %q", k)
		}
		seen[k] = true
		i := slices.IndexFunc(planKeys, func(pk planKey) bool { return pk.name == k })
		if i < 0 {
			return Plan{}, fmt.Errorf("fault: unknown key %q (known: %s)", k, strings.Join(knownKeys(), ", "))
		}
		var err error
		switch f := planKeys[i].field(&p).(type) {
		case *int64:
			*f, err = strconv.ParseInt(v, 10, 64)
		case *int:
			*f, err = strconv.Atoi(v)
		case *float64:
			*f, err = strconv.ParseFloat(v, 64)
		case *sim.Time:
			*f, err = parseLatency(v)
		case *uint64:
			*f, err = parseDieList(v)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("fault: bad value for %s: %v", k, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// parseDieList parses the diefail value: die indexes separated by ';'
// (e.g. "3" or "3;7;12"), each in [0,64) — the mask width; the armed
// geometry is checked separately by ValidateDies. Duplicates are
// rejected like duplicate keys: they signal a typo.
func parseDieList(v string) (uint64, error) {
	var mask uint64
	for _, part := range strings.Split(v, ";") {
		part = strings.TrimSpace(part)
		d, err := strconv.Atoi(part)
		if err != nil {
			return 0, fmt.Errorf("die index %q: %v", part, err)
		}
		if d < 0 || d >= 64 {
			return 0, fmt.Errorf("die index %d outside [0,64)", d)
		}
		if mask&(1<<uint(d)) != 0 {
			return 0, fmt.Errorf("duplicate die index %d", d)
		}
		mask |= 1 << uint(d)
	}
	return mask, nil
}

func parseLatency(v string) (sim.Time, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, err
	}
	return sim.FromDuration(d), nil
}

func knownKeys() []string {
	ks := make([]string, len(planKeys))
	for i, k := range planKeys {
		ks[i] = k.name
	}
	sort.Strings(ks)
	return ks
}
