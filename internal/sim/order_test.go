package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
)

// resumeTrace records, after every call that may hand control to the
// scheduler, which proc came back and at what proc and engine time. The
// scheduler may skip a hand-off it can prove is a self-resume, so the trace
// is taken from the procs' side: it is the same whether or not the proc
// actually parked.
type resumeTrace struct {
	e    *Engine
	rows []traceRow
}

type traceRow struct {
	id       int
	now, eng Time
}

func (tr *resumeTrace) note(p *Proc) {
	tr.rows = append(tr.rows, traceRow{p.ID(), p.Now(), tr.e.Now()})
}

func (tr *resumeTrace) sum() uint64 {
	h := fnv.New64a()
	var b [24]byte
	for _, r := range tr.rows {
		binary.LittleEndian.PutUint64(b[0:], uint64(r.id))
		binary.LittleEndian.PutUint64(b[8:], uint64(r.now))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.eng))
		h.Write(b[:])
	}
	return h.Sum64()
}

// randomProgram runs a seeded proc program over every scheduling primitive
// of the package — Sleep, Yield, WaitUntil in the past, Waiter Wait/Wake/
// WakeOne, Lock, Barrier, Event, a mid-run GoAt and daemons — and returns
// its resume trace.
func randomProgram(seed int64) *resumeTrace {
	e := New()
	tr := &resumeTrace{e: e}
	var (
		w    Waiter
		lk   Lock
		bar  = NewBarrier(3)
		ev   Event
		late Event
	)
	// Daemons: a ticker that broadcasts on w (so no Wait can deadlock) and
	// one that parks on w forever between ticks.
	e.GoDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(37)
			if p.Now() > Second {
				panic("sim: random program did not finish")
			}
			tr.note(p)
			w.Wake(p.Now())
		}
	})
	e.GoDaemon("lurker", func(p *Proc) {
		for {
			w.Wait(p)
			tr.note(p)
			p.Advance(3)
		}
	})
	const workers = 5
	for i := 0; i < workers; i++ {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(9); op {
				case 0:
					p.Sleep(Time(rng.Intn(50)))
				case 1:
					p.Yield()
				case 2:
					p.WaitUntil(p.Now() - Time(rng.Intn(20)))
				case 3:
					w.Wait(p)
				case 4:
					if rng.Intn(2) == 0 {
						w.Wake(p.Now())
					} else {
						w.WakeOne(p.Now())
					}
					p.Sleep(Time(rng.Intn(5)))
				case 5:
					lk.Acquire(p)
					p.Advance(Time(rng.Intn(30)))
					if rng.Intn(2) == 0 {
						p.Sleep(Time(rng.Intn(10)))
					}
					lk.Release(p)
				case 6:
					if lk.TryAcquire(p) {
						p.Advance(7)
						lk.Release(p)
					}
					p.Yield()
				case 7:
					if i != 0 { // worker 0 fires ev
						ev.Wait(p)
					}
				case 8:
					p.Advance(Time(rng.Intn(15)))
					p.Sleep(0)
				}
				tr.note(p)
				if i == 0 && step == 20 {
					ev.Fire(p.Now())
				}
				if i == 1 && step == 30 {
					e.GoAt("child", p.Now()+5, func(c *Proc) {
						for k := 0; k < 10; k++ {
							c.Sleep(Time(k))
							tr.note(c)
						}
						late.Fire(c.Now())
					})
				}
			}
		})
	}
	// A barrier group whose members also wait on the child's event.
	for i := 0; i < 3; i++ {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(i)))
		e.Go(fmt.Sprintf("b%d", i), func(p *Proc) {
			for phase := 0; phase < 8; phase++ {
				p.Sleep(Time(rng.Intn(40)))
				bar.Wait(p)
				tr.note(p)
			}
			late.Wait(p)
			tr.note(p)
		})
	}
	e.Run()
	return tr
}

// TestResumeOrderPinned pins the resume trace of randomProgram over several
// seeds to the order of a scheduler that parks on every call: any change to
// the scheduling order, or to the times procs observe, moves the digest.
func TestResumeOrderPinned(t *testing.T) {
	h := fnv.New64a()
	rows := 0
	for seed := int64(1); seed <= 8; seed++ {
		tr := randomProgram(seed)
		if again := randomProgram(seed); again.sum() != tr.sum() {
			t.Fatalf("seed %d: two runs of the same program diverged", seed)
		}
		rows += len(tr.rows)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], tr.sum())
		h.Write(b[:])
	}
	const want = 0x61e6bd8a347bba2f
	if got := h.Sum64(); got != want {
		t.Fatalf("resume-order digest = %#016x over %d rows, want %#016x", got, rows, want)
	}
}

// TestEqualWakeLowerIDRunsFirst: a proc that sleeps to an instant another
// proc with a lower id is already queued for must let that proc run first —
// it is not the heap minimum, so it cannot take the self-resume shortcut.
func TestEqualWakeLowerIDRunsFirst(t *testing.T) {
	e := New()
	tr := &resumeTrace{e: e}
	e.Go("low", func(p *Proc) {
		p.Sleep(100)
		tr.note(p)
	})
	e.Go("high", func(p *Proc) {
		p.Sleep(90)
		tr.note(p)
		p.Sleep(10) // wakes at 100, the same instant as "low"
		tr.note(p)
		p.Sleep(5) // alone now: resumes itself
		tr.note(p)
	})
	e.Run()
	want := []traceRow{{1, 90, 90}, {0, 100, 100}, {1, 100, 100}, {1, 105, 105}}
	if fmt.Sprint(tr.rows) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", tr.rows, want)
	}
}
