package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestClockAdvancesThroughSleep(t *testing.T) {
	e := NewEnv()
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		p.Sleep(7 * Microsecond)
		at = p.Now()
	})
	e.Run()
	if at != 12*Microsecond {
		t.Fatalf("got %v, want 12us", at)
	}
	if e.Now() != 12*Microsecond {
		t.Fatalf("env clock %v, want 12us", e.Now())
	}
}

func TestZeroSleepDoesNotYield(t *testing.T) {
	e := NewEnv()
	order := ""
	e.Spawn("a", func(p *Proc) {
		p.Sleep(0)
		order += "a"
	})
	e.Spawn("b", func(p *Proc) { order += "b" })
	e.Run()
	if order != "ab" {
		t.Fatalf("order %q, want ab (spawn order preserved)", order)
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		e := NewEnv()
		var log []string
		for _, name := range []string{"p1", "p2", "p3"} {
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(10)
					log = append(log, name)
				}
			})
		}
		e.Run()
		return log
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d: length %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d: nondeterministic at %d: %v vs %v", i, j, got, first)
				}
			}
		}
	}
}

func TestEventBroadcastAndLatch(t *testing.T) {
	e := NewEnv()
	ev := e.NewEvent()
	woken := 0
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Wait(ev)
			woken++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(100)
		ev.Fire()
	})
	// A late waiter after the fire must pass straight through.
	e.Spawn("late", func(p *Proc) {
		p.Sleep(200)
		p.Wait(ev)
		woken++
	})
	e.Run()
	if woken != 4 {
		t.Fatalf("woken=%d, want 4", woken)
	}
	if !ev.Fired() {
		t.Fatal("event should stay fired")
	}
}

func TestJoin(t *testing.T) {
	e := NewEnv()
	child := e.Spawn("child", func(p *Proc) { p.Sleep(500) })
	var joinedAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Join(child)
		joinedAt = p.Now()
	})
	e.Run()
	if joinedAt != 500 {
		t.Fatalf("joinedAt=%v, want 500", joinedAt)
	}
}

func TestResourceSerializes(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends=%v, want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		e.Spawn("u", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	want := []Time{100, 100, 200, 200}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends=%v, want %v", ends, want)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		e.SpawnAt(Time(i), "u", func(p *Proc) {
			r.Acquire(p)
			p.Sleep(50)
			order = append(order, i)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order=%v, want FIFO", order)
		}
	}
}

func TestTryAcquireRespectsWaiters(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	got := true
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(100)
		r.Release()
	})
	e.SpawnAt(10, "waiter", func(p *Proc) { r.Acquire(p); r.Release() })
	e.SpawnAt(20, "try", func(p *Proc) { got = r.TryAcquire() })
	e.Run()
	if got {
		t.Fatal("TryAcquire must fail while another process waits")
	}
}

func TestResourceBusyTime(t *testing.T) {
	e := NewEnv()
	r := e.NewResource("r", 1)
	e.Spawn("u", func(p *Proc) {
		r.Use(p, Second)
		p.Sleep(Second)
	})
	e.Run()
	if bt := r.BusyTime(); bt < 0.999 || bt > 1.001 {
		t.Fatalf("busy time %v, want ~1s", bt)
	}
}

func TestLinkTransferTimes(t *testing.T) {
	e := NewEnv()
	l := e.NewLink("pcie", 1e9, 2*Microsecond, 0) // 1 GB/s, 2us latency
	var end Time
	e.Spawn("x", func(p *Proc) {
		l.Transfer(p, 1e6) // 1 MB -> 1ms serialize + 2us prop
		end = p.Now()
	})
	e.Run()
	want := Millisecond + 2*Microsecond
	if end != want {
		t.Fatalf("end=%v, want %v", end, want)
	}
}

func TestLinkSerializesButPipelinesLatency(t *testing.T) {
	e := NewEnv()
	l := e.NewLink("pcie", 1e9, 10*Microsecond, 0)
	var ends []Time
	for i := 0; i < 2; i++ {
		e.Spawn("x", func(p *Proc) {
			l.Transfer(p, 1e6)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// First: 1ms + 10us. Second serializes behind first's 1ms occupancy,
	// then its own 1ms + 10us => 2ms + 10us (latency overlaps).
	if ends[0] != Millisecond+10*Microsecond || ends[1] != 2*Millisecond+10*Microsecond {
		t.Fatalf("ends=%v", ends)
	}
}

func TestSharedBWFairSharing(t *testing.T) {
	e := NewEnv()
	s := e.NewSharedBW("mem", 1e9) // 1 GB/s
	var aEnd, bEnd Time
	e.Spawn("a", func(p *Proc) { s.Transfer(p, 1e6); aEnd = p.Now() })
	e.Spawn("b", func(p *Proc) { s.Transfer(p, 1e6); bEnd = p.Now() })
	e.Run()
	// Two equal flows sharing 1GB/s finish together at 2ms.
	if aEnd != 2*Millisecond || bEnd != 2*Millisecond {
		t.Fatalf("aEnd=%v bEnd=%v, want 2ms each", aEnd, bEnd)
	}
}

func TestSharedBWShortFlowLeavesEarly(t *testing.T) {
	e := NewEnv()
	s := e.NewSharedBW("mem", 1e9)
	var small, big Time
	e.Spawn("small", func(p *Proc) { s.Transfer(p, 1e6); small = p.Now() })
	e.Spawn("big", func(p *Proc) { s.Transfer(p, 3e6); big = p.Now() })
	e.Run()
	// Shared until small done: small has 1MB at 0.5GB/s -> 2ms.
	// Big then has 2MB left at full rate -> +2ms = 4ms.
	if small != 2*Millisecond {
		t.Fatalf("small=%v, want 2ms", small)
	}
	if big != 4*Millisecond {
		t.Fatalf("big=%v, want 4ms", big)
	}
}

func TestSharedBWBackgroundLoad(t *testing.T) {
	e := NewEnv()
	s := e.NewSharedBW("mem", 1e9)
	s.SetLoad(3) // 3 background shares
	var end Time
	e.Spawn("fg", func(p *Proc) { s.Transfer(p, 1e6); end = p.Now() })
	e.Run()
	// Foreground gets 1/4 of 1GB/s -> 4ms for 1MB.
	if end != 4*Millisecond {
		t.Fatalf("end=%v, want 4ms", end)
	}
}

func TestSharedBWLoadChangeMidFlow(t *testing.T) {
	e := NewEnv()
	s := e.NewSharedBW("mem", 1e9)
	var end Time
	e.Spawn("fg", func(p *Proc) { s.Transfer(p, 2e6); end = p.Now() })
	e.Spawn("loader", func(p *Proc) {
		p.Sleep(Millisecond) // after 1ms, 1MB remains
		s.SetLoad(1)         // halve the rate
	})
	e.Run()
	if end != 3*Millisecond {
		t.Fatalf("end=%v, want 3ms", end)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv()
	total := 0
	e.Spawn("parent", func(p *Proc) {
		kids := make([]*Proc, 3)
		for i := range kids {
			kids[i] = e.Spawn("kid", func(p *Proc) {
				p.Sleep(10)
				total++
			})
		}
		for _, k := range kids {
			p.Join(k)
		}
		total *= 10
	})
	e.Run()
	if total != 30 {
		t.Fatalf("total=%d, want 30", total)
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	e := NewEnv()
	fired := false
	e.Spawn("p", func(p *Proc) {
		p.Sleep(2 * Second)
		fired = true
	})
	e.RunUntil(Second)
	if fired {
		t.Fatal("event past deadline must not fire")
	}
	if e.Now() != Second {
		t.Fatalf("clock=%v, want 1s", e.Now())
	}
	e.Run()
	if !fired {
		t.Fatal("resuming Run should fire the event")
	}
}

// TestProcessPanicPropagates: the body's panic comes out of Run with the
// process named, the worker it ran on goes back to the pool, and the Env
// keeps scheduling.
func TestProcessPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			want := `sim: process "bad" panicked: boom`
			if v := recover(); v != want {
				t.Fatalf("Run panicked with %v, want %q", v, want)
			}
		}()
		e.Run()
	}()
	if e.NumProcs() != 0 || len(e.pool.idle) != 1 {
		t.Fatalf("after the panic: %d live procs, %d idle workers; want 0, 1", e.NumProcs(), len(e.pool.idle))
	}
	ran := false
	e.Spawn("good", func(p *Proc) {
		p.Sleep(1)
		ran = true
	})
	e.Run()
	if !ran || len(e.pool.idle) != 1 {
		t.Fatalf("after the panic: ran=%v on %d workers, want true on 1", ran, len(e.pool.idle))
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.now = 100
	e.scheduleWake(50, nil)
}

func TestTransferTimeProperties(t *testing.T) {
	// Monotone in n, and additive within rounding.
	f := func(a, b uint32) bool {
		n1, n2 := int64(a%1e6)+1, int64(b%1e6)+1
		const bw = 3.2e9
		t1, t2 := TransferTime(n1, bw), TransferTime(n2, bw)
		sum := TransferTime(n1+n2, bw)
		if n1 < n2 && t1 > t2 {
			return false
		}
		d := sum - (t1 + t2)
		return d >= -2 && d <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharedBWConservesWork(t *testing.T) {
	// Property: total completion time of k equal flows started together
	// equals k*per-flow-alone time (work conservation under PS).
	f := func(k8 uint8) bool {
		k := int(k8%6) + 1
		e := NewEnv()
		s := e.NewSharedBW("mem", 1e9)
		var last Time
		for i := 0; i < k; i++ {
			e.Spawn("f", func(p *Proc) {
				s.Transfer(p, 1e6)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := Time(k) * Millisecond
		d := last - want
		return d >= -Time(k) && d <= Time(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceHookObservesEvents(t *testing.T) {
	e := NewEnv()
	var lines []string
	e.SetTrace(func(s string) { lines = append(lines, s) })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(20)
	})
	e.Run()
	if len(lines) < 3 { // spawn + two sleeps
		t.Fatalf("trace lines=%d, want >=3: %v", len(lines), lines)
	}
	e.SetTrace(nil)
}

func TestSchedHookStructuredEvents(t *testing.T) {
	e := NewEnv()
	var evs []SchedEvent
	e.SetSchedHook(func(ev SchedEvent) { evs = append(evs, ev) })
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(20)
	})
	e.Run()
	if len(evs) < 3 {
		t.Fatalf("sched events=%d, want >=3: %v", len(evs), evs)
	}
	// Dispatch order is (at, seq)-monotone.
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("time went backwards: %v after %v", evs[i], evs[i-1])
		}
		if evs[i].Seq == evs[i-1].Seq {
			t.Fatalf("duplicate seq %d", evs[i].Seq)
		}
	}
	// The string adapter renders the same dispatches in the legacy
	// format.
	e2 := NewEnv()
	var lines []string
	e2.SetTrace(func(s string) { lines = append(lines, s) })
	e2.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Sleep(20)
	})
	e2.Run()
	if len(lines) != len(evs) {
		t.Fatalf("adapter lines=%d, hook events=%d", len(lines), len(evs))
	}
	for i, ev := range evs {
		want := fmt.Sprintf("t=%v seq=%d", ev.At, ev.Seq)
		if lines[i] != want {
			t.Fatalf("line %d = %q, want %q", i, lines[i], want)
		}
	}
}
