package sim

import (
	"fmt"
	"testing"
)

// BenchmarkSimCore is the DES-core microbench family (`make
// benchsmoke` keeps it building; benchmark/ holds the gated wall-clock
// rows). Run with -benchmem: the steady-state sub-benches must report
// 0 allocs/op.

// BenchmarkSimCore/hold-N: the classic hold model (pop-advance-push at
// constant queue depth N) on the production binary value heap.
func BenchmarkSimCore(b *testing.B) {
	b.Run("hold-64", func(b *testing.B) { benchHold(b, 64) })
	b.Run("hold-1024", func(b *testing.B) { benchHold(b, 1024) })
	b.Run("hold-8192", func(b *testing.B) { benchHold(b, 8192) })

	// after: schedule+dispatch of pure timer callbacks through a full
	// Env, no processes involved — the scheduler's inner loop.
	b.Run("after", func(b *testing.B) {
		e := NewEnv()
		count := 0
		fn := func() { count++ }
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += 128 {
			for j := 0; j < 128; j++ {
				e.After(Time(j%37), fn)
			}
			e.Run()
		}
	})

	// sleep: the typed-wake park/resume path, one full process
	// suspension and resumption per op (two coroutine switches).
	b.Run("sleep", func(b *testing.B) {
		e := NewEnv()
		b.ReportAllocs()
		b.ResetTimer()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	})
}

// holdBatch amortizes the queue prefill: each Hold call pays pending
// pushes of setup, so ops per call must dwarf it for ns/op to measure
// the steady-state pop/push cycle.
const holdBatch = 1 << 16

func benchHold(b *testing.B, pending int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i += holdBatch {
		Hold(pending, holdBatch, uint64(i)+1)
	}
}

// BenchmarkSimCoreRef runs the hold model on the retained
// container/heap reference queue — the pre-optimization core. The
// ratio BenchmarkSimCore/hold-N ÷ BenchmarkSimCoreRef/hold-N is the
// machine-normalized speedup of the queue swap.
func BenchmarkSimCoreRef(b *testing.B) {
	for _, pending := range []int{64, 1024, 8192} {
		pending := pending
		b.Run(fmt.Sprintf("hold-%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i += holdBatch {
				HoldRef(pending, holdBatch, uint64(i)+1)
			}
		})
	}
}

// BenchmarkProcWake pins the cost of one Proc park/resume cycle — the
// two coroutine switches (the worker's yield out, the scheduler's next
// back in) every process suspension pays. This is the floor under all
// process-level simulation throughput.
//
// yield: pure handoff — wake at the current instant, park, resume.
// Nothing but the scheduler round-trip; must be 0 allocs/op.
//
// sleep: the same round-trip through the timer path — scheduleWake at
// a future instant plus the queue push/pop; must be 0 allocs/op.
func BenchmarkProcWake(b *testing.B) {
	b.Run("yield", func(b *testing.B) {
		e := NewEnv()
		b.ReportAllocs()
		b.ResetTimer()
		e.Spawn("yielder", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Yield()
			}
		})
		e.Run()
	})
	b.Run("sleep", func(b *testing.B) {
		e := NewEnv()
		b.ReportAllocs()
		b.ResetTimer()
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(1)
			}
		})
		e.Run()
	})
}
