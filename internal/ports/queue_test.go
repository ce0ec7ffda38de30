package ports

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"biscuit/internal/fibers"
	"biscuit/internal/sim"
)

func TestPutGetFIFO(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 4)
	var got []int
	e.Spawn("prod", func(p *sim.Proc) {
		b := ProcBlocker{p}
		for i := 0; i < 10; i++ {
			q.Put(b, i)
		}
		q.Close()
	})
	e.Spawn("cons", func(p *sim.Proc) {
		b := ProcBlocker{p}
		for {
			v, ok := q.Get(b)
			if !ok {
				break
			}
			got = append(got, v)
		}
	})
	e.Run()
	if len(got) != 10 {
		t.Fatalf("got %d values", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got=%v not FIFO", got)
		}
	}
}

func TestPutBlocksWhenFull(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 1)
	var putDone sim.Time
	e.Spawn("prod", func(p *sim.Proc) {
		b := ProcBlocker{p}
		q.Put(b, 1)
		q.Put(b, 2) // must block until consumer drains
		putDone = p.Now()
	})
	e.Spawn("cons", func(p *sim.Proc) {
		p.Sleep(100)
		if v, ok := q.Get(ProcBlocker{p}); !ok || v != 1 {
			t.Errorf("get = %d, %v", v, ok)
		}
	})
	e.Run()
	if putDone != 100 {
		t.Fatalf("second put completed at %v, want 100", putDone)
	}
}

func TestGetBlocksWhenEmpty(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[string](e, 2)
	var got string
	var at sim.Time
	e.Spawn("cons", func(p *sim.Proc) {
		got, _ = q.Get(ProcBlocker{p})
		at = p.Now()
	})
	e.Spawn("prod", func(p *sim.Proc) {
		p.Sleep(50)
		if !q.Put(ProcBlocker{p}, "x") {
			t.Error("put on an open queue failed")
		}
	})
	e.Run()
	if got != "x" || at != 50 {
		t.Fatalf("got=%q at %v", got, at)
	}
}

func TestCloseDrainsThenEOF(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 4)
	var vals []int
	var eof bool
	e.Spawn("x", func(p *sim.Proc) {
		b := ProcBlocker{p}
		q.Put(b, 1)
		q.Put(b, 2)
		q.Close()
		for {
			v, ok := q.Get(b)
			if !ok {
				eof = true
				break
			}
			vals = append(vals, v)
		}
		if q.Put(b, 3) {
			t.Error("put after close must fail")
		}
	})
	e.Run()
	if !eof || len(vals) != 2 {
		t.Fatalf("eof=%v vals=%v", eof, vals)
	}
}

func TestCloseWakesBlockedGetter(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 1)
	var ok = true
	e.Spawn("cons", func(p *sim.Proc) {
		_, ok = q.Get(ProcBlocker{p})
	})
	e.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(10)
		q.Close()
	})
	e.Run()
	if ok {
		t.Fatal("get must report EOF after close")
	}
}

func TestCloseWakesBlockedPutter(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 1)
	okPut := true
	e.Spawn("prod", func(p *sim.Proc) {
		b := ProcBlocker{p}
		q.Put(b, 1)
		okPut = q.Put(b, 2) // blocks; then close
	})
	e.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(10)
		q.Close()
	})
	e.Run()
	if okPut {
		t.Fatal("put must fail when queue closes while blocked")
	}
}

func TestMPSCManyProducers(t *testing.T) {
	e := sim.NewEnv()
	q := NewQueue[int](e, 2)
	sum := 0
	for i := 1; i <= 5; i++ {
		i := i
		e.Spawn("prod", func(p *sim.Proc) {
			q.Put(ProcBlocker{p}, i)
		})
	}
	e.Spawn("cons", func(p *sim.Proc) {
		b := ProcBlocker{p}
		for n := 0; n < 5; n++ {
			v, _ := q.Get(b)
			sum += v
		}
	})
	e.Run()
	if sum != 15 {
		t.Fatalf("sum=%d, want 15", sum)
	}
}

func TestQueueNeverExceedsCapacityProperty(t *testing.T) {
	prop := func(capRaw uint8, n uint8) bool {
		capacity := int(capRaw%5) + 1
		items := int(n % 50)
		e := sim.NewEnv()
		q := NewQueue[int](e, capacity)
		maxLen := 0
		e.Spawn("prod", func(p *sim.Proc) {
			b := ProcBlocker{p}
			for i := 0; i < items; i++ {
				q.Put(b, i)
				if q.Len() > maxLen {
					maxLen = q.Len()
				}
			}
			q.Close()
		})
		e.Spawn("cons", func(p *sim.Proc) {
			b := ProcBlocker{p}
			prev := -1
			for {
				v, ok := q.Get(b)
				if !ok {
					return
				}
				if v != prev+1 {
					t.Errorf("out of order: %d after %d", v, prev)
				}
				prev = v
			}
		})
		e.Run()
		return maxLen <= capacity
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueMatchesSliceModel drives a capacity-2 queue with a seeded
// random schedule of puts, gets and one close from 1–3 producers and
// 1–3 consumers, host threads and device fibers mixed, and holds it to
// a plain slice: simulated processes run one at a time, so the model
// can be updated right after each call returns and must agree with the
// queue on every element, in order, with nothing lost or duplicated
// and false exactly when closed (Put) or closed and drained (Get).
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEnv()
		dev := fibers.New(e, fibers.Config{Cores: 2, Hz: 1e9, CSW: 3})
		const capacity = 2
		q := NewQueue[int](e, capacity)
		var (
			model       []int // what the queue must hold, head first
			closed      bool
			put, got    []int
			failf       = func(format string, a ...any) { t.Errorf("seed %d: "+format, append([]any{seed}, a...)...) }
			checkLevels = func(op string) {
				if q.Len() != len(model) || q.Len() > capacity {
					failf("after %s: Len=%d, model has %d", op, q.Len(), len(model))
				}
			}
		)
		// actor starts body on a host thread or a fiber, as the seed says.
		actor := func(name string, body func(b Blocker)) {
			if rng.Intn(2) == 0 {
				e.Spawn(name, func(p *sim.Proc) { body(ProcBlocker{p}) })
			} else {
				dev.NewGroup().Go(name, func(f *fibers.Fiber) { body(f) })
			}
		}
		pause := func() sim.Time { return sim.Time(rng.Intn(8)) } // drawn up front: actors must not share rng
		planned := 0
		for pi, nProd := 0, 1+rng.Intn(3); pi < nProd; pi++ {
			pauses := make([]sim.Time, 1+rng.Intn(12))
			planned += len(pauses)
			for i := range pauses {
				pauses[i] = pause()
			}
			actor(fmt.Sprintf("prod-%d", pi), func(b Blocker) {
				for i, d := range pauses {
					b.Block(func(p *sim.Proc) { p.Sleep(d) })
					v := pi<<8 | i
					ok := q.Put(b, v)
					if ok == closed {
						failf("Put(%#x) = %v with closed=%v", v, ok, closed)
					}
					if ok {
						model = append(model, v)
						put = append(put, v)
					}
					checkLevels("put")
				}
			})
		}
		for ci, nCons := 0, 1+rng.Intn(3); ci < nCons; ci++ {
			pauses := make([]sim.Time, 64)
			for i := range pauses {
				pauses[i] = pause()
			}
			actor(fmt.Sprintf("cons-%d", ci), func(b Blocker) {
				for i := 0; ; i++ {
					b.Block(func(p *sim.Proc) { p.Sleep(pauses[i%len(pauses)]) })
					v, ok := q.Get(b)
					switch {
					case !ok && (!closed || len(model) > 0):
						failf("Get = false with closed=%v and %d element(s) due", closed, len(model))
					case ok && len(model) == 0:
						failf("Get = %#x from an empty model", v)
					case ok && v != model[0]:
						failf("Get = %#x, model head is %#x", v, model[0])
					}
					if !ok {
						if _, again := q.Get(b); again {
							failf("Get succeeded after reporting end of stream")
						}
						return
					}
					model = model[1:]
					got = append(got, v)
					checkLevels("get")
				}
			})
		}
		// Half the seeds close mid-stream; the rest close long after the
		// producers can have finished, so a put that was still refused
		// sat out a wakeup it was owed.
		closeAt, late := sim.Time(rng.Intn(60)), rng.Intn(2) == 0
		if late {
			closeAt = sim.Millisecond
		}
		e.Spawn("closer", func(p *sim.Proc) {
			p.Sleep(closeAt)
			q.Close()
			closed = true
			checkLevels("close")
		})
		e.Run()
		if !closed || len(model) != 0 {
			t.Fatalf("seed %d: run ended with closed=%v and %d element(s) undelivered", seed, closed, len(model))
		}
		if late && len(put) != planned {
			t.Fatalf("seed %d: %d of %d puts accepted before a close at %v", seed, len(put), planned, closeAt)
		}
		// Global FIFO makes got == put elementwise, which is also the
		// no-loss, no-duplicate check.
		if !slices.Equal(got, put) {
			t.Fatalf("seed %d: delivered %x, accepted %x", seed, got, put)
		}
	}
}

func TestPacketEncodeDecode(t *testing.T) {
	type pair struct {
		Word string
		N    uint32
	}
	p, err := Encode(pair{"hello", 42})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 {
		t.Fatal("empty packet")
	}
	got, err := Decode[pair](p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Word != "hello" || got.N != 42 {
		t.Fatalf("got %+v", got)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	prop := func(s string, n int64) bool {
		type v struct {
			S string
			N int64
		}
		p, err := Encode(v{s, n})
		if err != nil {
			return false
		}
		got, err := Decode[v](p)
		return err == nil && got.S == s && got.N == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

type customMsg struct{ b byte }

func (m customMsg) MarshalPacket() (Packet, error) { return NewPacket([]byte{m.b}), nil }
func (m *customMsg) UnmarshalPacket(p Packet) error {
	m.b = p.Bytes()[0]
	return nil
}

func TestCustomMarshalerPreferred(t *testing.T) {
	p, err := Encode(customMsg{7})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 {
		t.Fatalf("custom marshaler bypassed: len=%d", p.Len())
	}
	got, err := Decode[customMsg](p)
	if err != nil || got.b != 7 {
		t.Fatalf("got=%+v err=%v", got, err)
	}
}
