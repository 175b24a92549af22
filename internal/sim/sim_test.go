package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestSingleProcAdvance(t *testing.T) {
	e := New()
	var end Time
	e.Go("solo", func(p *Proc) {
		p.Advance(5 * Microsecond)
		p.Advance(7 * Microsecond)
		end = p.Now()
	})
	e.Run()
	if end != 12*Microsecond {
		t.Fatalf("end = %v, want 12us", end)
	}
}

func TestSleepOrdersProcs(t *testing.T) {
	e := New()
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(30)
		order = append(order, "a")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "b")
	})
	e.Go("c", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "c")
	})
	e.Run()
	want := []string{"b", "c", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTieBrokenByCreationOrder(t *testing.T) {
	e := New()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Go(name, func(p *Proc) {
			p.Sleep(100)
			order = append(order, name)
		})
	}
	e.Run()
	if fmt.Sprint(order) != "[p0 p1 p2]" {
		t.Fatalf("order = %v", order)
	}
}

func TestWaiterWakeMovesClockForward(t *testing.T) {
	e := New()
	var w Waiter
	var wokenAt Time
	e.Go("sleeper", func(p *Proc) {
		w.Wait(p)
		wokenAt = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(500)
		w.Wake(p.Now())
	})
	e.Run()
	if wokenAt != 500 {
		t.Fatalf("wokenAt = %v, want 500", wokenAt)
	}
}

func TestWaiterDoesNotRewindClock(t *testing.T) {
	e := New()
	var w Waiter
	var wokenAt Time
	e.Go("late-sleeper", func(p *Proc) {
		p.Advance(1000) // already past the waker's time
		w.Wait(p)
		wokenAt = p.Now()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(500)
		for w.Empty() {
			p.Sleep(100)
		}
		w.Wake(p.Now())
	})
	e.Run()
	if wokenAt != 1000 {
		t.Fatalf("wokenAt = %v, want 1000 (clock must not rewind)", wokenAt)
	}
}

func TestWakeOneIsFIFO(t *testing.T) {
	e := New()
	var w Waiter
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(i)) // park in order 0,1,2
			w.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		for i := 0; i < 3; i++ {
			w.WakeOne(p.Now())
			p.Sleep(10)
		}
	})
	e.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("order = %v", order)
	}
}

func TestEventBeforeAndAfterFire(t *testing.T) {
	e := New()
	ev := &Event{}
	var earlyAt, lateAt Time
	e.Go("early", func(p *Proc) {
		ev.Wait(p) // waits for fire at t=100
		earlyAt = p.Now()
	})
	e.Go("firer", func(p *Proc) {
		p.Sleep(100)
		ev.Fire(p.Now())
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(300)
		ev.Wait(p) // already fired; no wait, no rewind
		lateAt = p.Now()
	})
	e.Run()
	if earlyAt != 100 {
		t.Fatalf("earlyAt = %v, want 100", earlyAt)
	}
	if lateAt != 300 {
		t.Fatalf("lateAt = %v, want 300", lateAt)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double fire")
		}
	}()
	ev := &Event{}
	ev.Fire(1)
	ev.Fire(2)
}

func TestDaemonDoesNotBlockExit(t *testing.T) {
	e := New()
	ticks := 0
	e.GoDaemon("daemon", func(p *Proc) {
		for {
			p.Sleep(10)
			ticks++
			if ticks > 1000 {
				return // safety: should never get here
			}
		}
	})
	e.Go("worker", func(p *Proc) { p.Sleep(55) })
	e.Run()
	if ticks > 6 {
		t.Fatalf("daemon ran %d ticks after workers finished", ticks)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New()
	var w Waiter
	e.Go("stuck", func(p *Proc) { w.Wait(p) })
	e.Run()
}

func TestSpawnDuringRun(t *testing.T) {
	e := New()
	var childEnd Time
	e.Go("parent", func(p *Proc) {
		p.Sleep(100)
		e.GoAt("child", p.Now(), func(c *Proc) {
			c.Sleep(50)
			childEnd = c.Now()
		})
		p.Sleep(1)
	})
	e.Run()
	if childEnd != 150 {
		t.Fatalf("childEnd = %v, want 150", childEnd)
	}
}

func TestEngineNowIsMonotone(t *testing.T) {
	e := New()
	var observed []Time
	for i := 0; i < 5; i++ {
		d := Time((5 - i) * 10)
		e.Go("p", func(p *Proc) {
			p.Sleep(d)
			observed = append(observed, e.Now())
		})
	}
	e.Run()
	if !sort.SliceIsSorted(observed, func(i, j int) bool { return observed[i] <= observed[j] }) {
		t.Fatalf("engine Now went backwards: %v", observed)
	}
}

// Property: for any set of sleep durations, procs complete in sorted order
// of duration (ties by creation order), and the engine's final Now equals
// the maximum duration.
func TestQuickSleepOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		e := New()
		type done struct {
			idx int
			d   Time
		}
		var finished []done
		for i, r := range raw {
			i, d := i, Time(r)
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, done{i, d})
			})
		}
		e.Run()
		if len(finished) != len(raw) {
			return false
		}
		for k := 1; k < len(finished); k++ {
			a, b := finished[k-1], finished[k]
			if a.d > b.d || (a.d == b.d && a.idx > b.idx) {
				return false
			}
		}
		max := Time(0)
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run is deterministic — same program, same interleaving.
func TestQuickDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var w Waiter
		var trace []int
		for i := 0; i < 10; i++ {
			i := i
			d := Time(rng.Intn(100))
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				trace = append(trace, i)
				if i%3 == 0 {
					w.Wake(p.Now())
				} else if i%3 == 1 && i < 7 {
					w.Wait(p)
					trace = append(trace, 100+i)
				}
			})
		}
		e.GoDaemon("sweeper", func(p *Proc) {
			for {
				p.Sleep(1000)
				w.Wake(p.Now())
			}
		})
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func BenchmarkAdvance(b *testing.B) {
	e := New()
	e.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	e.Run()
}

func BenchmarkSleepSwitch(b *testing.B) {
	e := New()
	for k := 0; k < 2; k++ {
		e.Go("bench", func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Sleep(1)
			}
		})
	}
	e.Run()
}

// BenchmarkWaiterHandoff: two procs ping-pong through a pair of Waiters;
// one op is one Wake→Wait hand-off.
func BenchmarkWaiterHandoff(b *testing.B) {
	e := New()
	var ping, pong Waiter
	e.GoDaemon("ponger", func(p *Proc) {
		for {
			ping.Wait(p)
			pong.Wake(p.Now())
		}
	})
	e.Go("pinger", func(p *Proc) {
		for i := 0; i < b.N/2; i++ {
			ping.Wake(p.Now())
			pong.Wait(p)
		}
	})
	e.Run()
}

// BenchmarkSelfResume: one proc sleeping with nothing else queued, so every
// Sleep is a self-resume that never leaves the proc.
func BenchmarkSelfResume(b *testing.B) {
	e := New()
	e.Go("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	e.Run()
}

// TestHandoffsDoNotAllocate: a Sleep, a WaitUntil and a Waiter Wait that
// each really park and are resumed by a partner proc allocate nothing.
func TestHandoffsDoNotAllocate(t *testing.T) {
	cases := []struct {
		name    string
		partner func(p *Proc, w *Waiter) // loops forever as a daemon
		op      func(p *Proc, w *Waiter)
	}{
		{"Sleep",
			func(p *Proc, _ *Waiter) { p.Sleep(1) },
			func(p *Proc, _ *Waiter) { p.Sleep(1) }},
		{"WaitUntil",
			func(p *Proc, _ *Waiter) { p.Sleep(1) },
			func(p *Proc, _ *Waiter) { p.WaitUntil(p.Now() + 1) }},
		{"Waiter",
			func(p *Proc, w *Waiter) { w.Wake(p.Now()); p.Sleep(1) },
			func(p *Proc, w *Waiter) { w.Wait(p) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			var w Waiter
			switches := 0
			// The partner has the lower id, so at equal wake times it runs
			// first and the measured op can never resume itself.
			e.GoDaemon("partner", func(p *Proc) {
				for {
					switches++
					c.partner(p, &w)
				}
			})
			var allocs float64
			const runs = 200
			e.Go("measured", func(p *Proc) {
				allocs = testing.AllocsPerRun(runs, func() { c.op(p, &w) })
			})
			e.Run()
			if switches < runs {
				t.Fatalf("partner ran %d times in %d ops: the op did not park", switches, runs)
			}
			if allocs != 0 {
				t.Fatalf("%s hand-off: %v allocs/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestProcPanicComesOutOfRun: a panic inside a proc surfaces from Run on
// the caller's goroutine as a *ProcPanic, and Run still shuts down every
// proc left parked, running their deferred functions.
func TestProcPanicComesOutOfRun(t *testing.T) {
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	var unwound []string
	func() {
		defer func() {
			r := recover()
			pp, ok := r.(*ProcPanic)
			if !ok {
				t.Fatalf("recovered %v (%T), want *ProcPanic", r, r)
			}
			if pp.Proc != "bad" || !errors.Is(pp, boom) || len(pp.Stack) == 0 {
				t.Fatalf("ProcPanic = {%q, %v, %d stack bytes}", pp.Proc, pp.Value, len(pp.Stack))
			}
		}()
		e := New()
		var w Waiter
		e.GoDaemon("sleeper", func(p *Proc) {
			defer func() { unwound = append(unwound, "sleeper") }()
			for {
				p.Sleep(3)
			}
		})
		e.GoDaemon("waiter", func(p *Proc) {
			defer func() { unwound = append(unwound, "waiter") }()
			w.Wait(p)
		})
		e.Go("worker", func(p *Proc) {
			defer func() { unwound = append(unwound, "worker") }()
			p.Sleep(100)
		})
		e.Go("bad", func(p *Proc) {
			p.Sleep(10)
			panic(boom)
		})
		e.Run()
		t.Fatal("Run returned normally")
	}()
	if fmt.Sprint(unwound) != "[sleeper waiter worker]" {
		t.Fatalf("unwound = %v, want every parked proc", unwound)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines left after a panicking run: %d -> %d", before, g)
	}
}

// TestShutdownRunsParkedDaemonDefers: when Run ends with daemons parked,
// their deferred functions run — and a deferred Sleep during the shutdown
// parks and unwinds instead of running on.
func TestShutdownRunsParkedDaemonDefers(t *testing.T) {
	e := New()
	var w Waiter
	var ran []string
	e.GoDaemon("sleeper", func(p *Proc) {
		defer func() { ran = append(ran, "sleeper") }()
		for {
			p.Sleep(1000)
		}
	})
	e.GoDaemon("waiter", func(p *Proc) {
		defer func() { ran = append(ran, "waiter") }()
		w.Wait(p)
	})
	e.GoDaemon("stubborn", func(p *Proc) {
		defer func() {
			ran = append(ran, "stubborn")
			p.Sleep(1)
			ran = append(ran, "stubborn-after-sleep")
		}()
		p.Sleep(2000)
	})
	e.Go("worker", func(p *Proc) { p.Sleep(10) })
	e.Run()
	if fmt.Sprint(ran) != "[sleeper waiter stubborn]" {
		t.Fatalf("deferred functions ran = %v", ran)
	}
}

func TestBarrierReleasesAtLatestTime(t *testing.T) {
	e := New()
	b := NewBarrier(3)
	var outs []Time
	for i := 0; i < 3; i++ {
		d := Time((i + 1) * 100)
		e.Go("w", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			outs = append(outs, p.Now())
		})
	}
	e.Run()
	if len(outs) != 3 {
		t.Fatal("not everyone released")
	}
	for _, o := range outs {
		if o != 300 {
			t.Fatalf("released at %v, want 300", o)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	e := New()
	b := NewBarrier(2)
	var trace []int
	for w := 0; w < 2; w++ {
		w := w
		e.Go("w", func(p *Proc) {
			for phase := 0; phase < 3; phase++ {
				p.Sleep(Time(10 * (w + 1)))
				b.Wait(p)
				if w == 0 {
					trace = append(trace, phase)
				}
			}
		})
	}
	e.Run()
	if fmt.Sprint(trace) != "[0 1 2]" {
		t.Fatalf("phases = %v", trace)
	}
}

func TestBarrierSingleProcNeverBlocks(t *testing.T) {
	e := New()
	b := NewBarrier(1)
	done := false
	e.Go("solo", func(p *Proc) {
		for i := 0; i < 5; i++ {
			b.Wait(p)
		}
		done = true
	})
	e.Run()
	if !done {
		t.Fatal("single-proc barrier blocked")
	}
}

func TestBarrierZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBarrier(0)
}

func TestRunShutsDownParkedDaemons(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 10; k++ {
		e := New()
		var w Waiter
		e.GoDaemon("sleeper", func(p *Proc) {
			for {
				p.Sleep(1000)
			}
		})
		e.GoDaemon("waiter", func(p *Proc) { w.Wait(p) })
		e.Go("worker", func(p *Proc) { p.Sleep(10); w.Wake(p.Now()) })
		e.Run()
	}
	// Give exiting goroutines a beat, then verify no accumulation.
	for i := 0; i < 100 && runtime.NumGoroutine() > before+2; i++ {
		runtime.Gosched()
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked across runs: %d -> %d", before, g)
	}
}
