package hostif

import (
	"bytes"
	"errors"
	"testing"

	"biscuit/internal/cpu"
	"biscuit/internal/fault"
	"biscuit/internal/ftl"
	"biscuit/internal/nand"
	"biscuit/internal/sim"
)

// faultStack builds an interface whose media and command path both roll
// the given plan.
func faultStack(t *testing.T, plan fault.Plan) (*sim.Env, *Interface, *fault.Injector) {
	t.Helper()
	e := sim.NewEnv()
	ncfg := nand.Config{
		Channels:       4,
		WaysPerChannel: 2,
		BlocksPerDie:   32,
		PagesPerBlock:  16,
		PageSize:       4096,
	}
	arr := nand.New(e, ncfg)
	inj, err := fault.NewInjector(e, plan)
	if err != nil {
		t.Fatal(err)
	}
	arr.SetInjector(inj)
	f := ftl.New(e, arr, ftl.DefaultConfig())
	hi := New(e, Config{}, f, cpu.New(e, "host", 24, 2.5e9), cpu.New(e, "devfw", 2, 750e6))
	hi.SetInjector(inj)
	return e, hi, inj
}

func TestTimeoutRetriedWithBackoff(t *testing.T) {
	// One guaranteed lost command: the retry policy reissues it and the
	// caller pays TimeoutDelay + one backoff but sees no error. The read
	// targets an unwritten page (all zeroes) so the single budgeted fault
	// is not consumed by a preloading write.
	plan := fault.Plan{Seed: 1, TimeoutProb: 1, MaxFaults: 1,
		TimeoutDelay: 5 * sim.Millisecond}
	e, hi, _ := faultStack(t, plan)
	e.Spawn("host", func(p *sim.Proc) {
		got := make([]byte, 4096)
		start := p.Now()
		if err := hi.Read(p, 0, got); err != nil {
			t.Fatalf("retry should have absorbed the timeout: %v", err)
		}
		for _, b := range got {
			if b != 0 {
				t.Error("unwritten page must read zero after retried command")
				break
			}
		}
		if el := p.Now() - start; el < plan.TimeoutDelay+retryBackoff {
			t.Errorf("read took %v, must include timeout delay and backoff", el)
		}
	})
	e.Run()
	timeouts, _, redos := hi.FaultStats()
	if timeouts != 1 || redos != 1 {
		t.Fatalf("timeouts=%d redos=%d, want 1,1", timeouts, redos)
	}
}

func TestTimeoutExhaustionSurfaces(t *testing.T) {
	plan := fault.Plan{Seed: 2, TimeoutProb: 1, TimeoutDelay: sim.Millisecond}
	e, hi, _ := faultStack(t, plan)
	e.Spawn("host", func(p *sim.Proc) {
		err := hi.Read(p, 0, make([]byte, 4096))
		if !errors.Is(err, fault.ErrTimeout) {
			t.Fatalf("want wrapped ErrTimeout, got %v", err)
		}
	})
	e.Run()
	timeouts, _, redos := hi.FaultStats()
	wantTries := int64(cmdRetries + 1)
	if timeouts != wantTries || redos != wantTries-1 {
		t.Fatalf("timeouts=%d redos=%d, want %d,%d", timeouts, redos, wantTries, wantTries-1)
	}
}

func TestBackoffIsExponential(t *testing.T) {
	// Total retry cost of n attempts is sum of TimeoutDelay per attempt
	// plus backoff 1x, 2x, 4x, ... between attempts.
	plan := fault.Plan{Seed: 3, TimeoutProb: 1, TimeoutDelay: sim.Millisecond}
	e, hi, _ := faultStack(t, plan)
	var elapsed sim.Time
	e.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		hi.Read(p, 0, make([]byte, 4096))
		elapsed = p.Now() - start
	})
	e.Run()
	tries := sim.Time(cmdRetries + 1)
	var backoffs sim.Time
	b := retryBackoff
	for i := 0; i < cmdRetries; i++ {
		backoffs += b
		b *= 2
	}
	min := tries*plan.TimeoutDelay + backoffs
	if elapsed < min {
		t.Fatalf("exhausted read took %v, want at least %v (delays + exponential backoff)", elapsed, min)
	}
}

func TestStallDelaysTransferOnly(t *testing.T) {
	plan := fault.Plan{Seed: 4, StallProb: 1, StallDelay: 200 * sim.Microsecond}
	e, hi, _ := faultStack(t, plan)
	e.Spawn("host", func(p *sim.Proc) {
		if err := hi.Read(p, 0, make([]byte, 4096)); err != nil {
			t.Fatalf("stalls must never fail a command: %v", err)
		}
	})
	e.Run()
	_, stalls, redos := hi.FaultStats()
	if stalls == 0 {
		t.Fatal("no stalls recorded under StallProb=1")
	}
	if redos != 0 {
		t.Fatalf("stalls caused %d retries; they must only add latency", redos)
	}
}

func TestCommandRetrySurvivesMediaErrors(t *testing.T) {
	// The command-level retry rolls fresh FTL read-retries per attempt,
	// so the Conv path survives an uncorrectable rate that would defeat
	// a single internal read. p(all fail) = u^((1+ftlRetries)(1+cmdRetries))
	// — with u=0.5 and the default 3x5 attempts, ~3e-5 per page.
	plan := fault.Plan{Seed: 5, UncorrectableProb: 0.5}
	e, hi, _ := faultStack(t, plan)
	want := bytes.Repeat([]byte{0x77}, 64<<10)
	e.Spawn("host", func(p *sim.Proc) {
		if err := hi.ftl.WriteRange(p, 0, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		for j := 0; j < 16; j++ {
			if err := hi.Read(p, int64(j*4096), got); err != nil {
				t.Fatalf("conv read %d failed under u=0.5: %v", j, err)
			}
			if !bytes.Equal(got, want[j*4096:(j+1)*4096]) {
				t.Errorf("page %d mismatch under media faults", j)
			}
		}
	})
	e.Run()
	_, _, redos := hi.FaultStats()
	if redos == 0 {
		t.Fatal("u=0.5 over 16 page commands should have forced command retries")
	}
}

func TestAsyncReadsPropagateFaultStatus(t *testing.T) {
	plan := fault.Plan{Seed: 6, TimeoutProb: 1, TimeoutDelay: sim.Millisecond}
	e, hi, _ := faultStack(t, plan)
	e.Spawn("host", func(p *sim.Proc) {
		c := hi.ReadAsync(p, 0, make([]byte, 4096))
		if err := c.Wait(p); !errors.Is(err, fault.ErrTimeout) {
			t.Fatalf("async completion must carry the timeout: %v", err)
		}
	})
	e.Run()
}

func TestHostifFaultDeterminism(t *testing.T) {
	run := func() (string, [3]int64) {
		plan := fault.DefaultPlan(77)
		e, hi, inj := faultStack(t, plan)
		e.Spawn("host", func(p *sim.Proc) {
			data := make([]byte, 256<<10)
			if err := hi.ftl.WriteRange(p, 0, data); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4096)
			for j := 0; j < 64; j++ {
				if err := hi.Read(p, int64(j*4096), buf); err != nil {
					t.Fatal(err)
				}
			}
		})
		e.Run()
		to, st, rd := hi.FaultStats()
		return inj.Signature(), [3]int64{to, st, rd}
	}
	sig1, st1 := run()
	sig2, st2 := run()
	if sig1 != sig2 || st1 != st2 {
		t.Fatalf("same-seed interface runs diverged: stats %v vs %v", st1, st2)
	}
}
