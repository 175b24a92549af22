// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine. Every active component of the reproduction — CPU cores,
// the DiLOS cleaner and reclaimer daemons, prefetch engines, AIFM background
// threads — runs as a Proc with its own virtual clock. The engine resumes
// exactly one Proc at a time, always the one with the smallest wake-up time
// (ties broken by creation order), so a whole run is a pure function of its
// inputs: no wall-clock time, no host scheduling, no data races.
//
// A Proc advances its local clock freely for pure computation (Advance) and
// yields to the scheduler only at interaction points: Sleep, WaitUntil, or
// blocking on a Waiter. Shared state mutated between yields is therefore
// observed atomically by other Procs, which is the standard process-style
// DES contract.
package sim

import (
	"container/heap"
	"fmt"
	"iter"
	"math"
	"runtime/debug"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Seconds returns t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t in microseconds as a float.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Engine owns the virtual clock and the run queue of Procs.
type Engine struct {
	queue   procHeap
	procs   []*Proc // every spawned proc (for shutdown)
	live    int     // non-daemon procs not yet finished
	nextID  int
	running bool
	now     Time // time of the most recently resumed proc (monotone)
}

// New creates an empty engine.
func New() *Engine { return &Engine{} }

// Now reports the virtual time of the most recently scheduled Proc. It is
// only meaningful while Run is in progress or after it returns.
func (e *Engine) Now() Time { return e.now }

// Proc is a simulated thread of control with a private virtual clock. It
// runs as an iter.Pull coroutine: the engine resumes it with next, and it
// hands control back with the coroutine's yield, so a switch is a direct
// hand-off on Run's goroutine rather than a trip through the Go scheduler.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	daemon bool

	now    Time
	wakeAt Time // valid while queued
	index  int  // heap index, -1 when not queued

	next     func() (struct{}, bool) // nil until first resumed
	stop     func()
	yieldFn  func(struct{}) bool
	finished bool
	fn       func(*Proc)
}

// abortPanic unwinds a parked proc that Run shuts down: its yield panics
// with it, running the proc's deferred functions, and the coroutine body
// recovers it. A plain runtime.Goexit would not do: iter.Pull re-raises a
// coroutine's Goexit on the goroutine that called stop, which is Run's.
var abortPanic = new(int)

// ProcPanic is the value Run panics with when a proc panics. iter.Pull
// re-raises a coroutine's panic on Run's goroutine, whose stack no longer
// shows the proc's frames, so the stack where the proc panicked rides
// along.
type ProcPanic struct {
	Proc  string // name of the proc that panicked
	Value any    // the value it panicked with
	Stack []byte // its stack at the panic
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked: %v\n\n%s", pp.Proc, pp.Value, pp.Stack)
}

// Unwrap returns the proc's panic value if it is an error.
func (pp *ProcPanic) Unwrap() error {
	err, _ := pp.Value.(error)
	return err
}

// Go registers a new process. If the engine is already running, the process
// starts at the spawning caller's discretion (start time = startAt). Procs
// created before Run starts begin at time 0 unless startAt says otherwise.
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false, 0)
}

// GoAt registers a process whose first instruction executes at startAt.
func (e *Engine) GoAt(name string, startAt Time, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false, startAt)
}

// GoDaemon registers a background process. Daemons do not keep the engine
// alive: Run returns once every non-daemon process has finished, even if
// daemons are still sleeping.
func (e *Engine) GoDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true, 0)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool, startAt Time) *Proc {
	p := &Proc{
		eng:    e,
		id:     e.nextID,
		name:   name,
		daemon: daemon,
		now:    startAt,
		fn:     fn,
		index:  -1,
	}
	e.nextID++
	e.procs = append(e.procs, p)
	if !daemon {
		e.live++
	}
	p.wakeAt = startAt
	heap.Push(&e.queue, p)
	return p
}

// Run executes the simulation until every non-daemon Proc has finished.
// It panics on deadlock (live procs remain but nothing is runnable), which
// in this codebase always indicates a bug in a Waiter protocol. A panic
// inside a proc comes out of Run, on the caller's goroutine.
//
// On the way out, normal or not, Run shuts down every proc still parked
// (daemons sleeping or waiting): each one's deferred functions run, and no
// coroutine outlives Run to pin the engine — and everything it references
// — for the life of the process.
func (e *Engine) Run() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() {
		for _, p := range e.procs {
			if p.next != nil && !p.finished {
				p.finished = true
				p.stop()
			}
		}
		e.running = false
	}()
	for e.live > 0 {
		if e.queue.Len() == 0 {
			panic("sim: deadlock — live procs exist but none runnable")
		}
		p := heap.Pop(&e.queue).(*Proc)
		p.index = -1
		if p.wakeAt > e.now {
			e.now = p.wakeAt
		}
		if p.now < p.wakeAt {
			p.now = p.wakeAt
		}
		e.resumeProc(p)
	}
}

// resumeProc runs p until it yields or returns.
func (e *Engine) resumeProc(p *Proc) {
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.body)
	}
	if _, ok := p.next(); !ok {
		p.finished = true
		if !p.daemon {
			e.live--
		}
	}
}

// body is the coroutine of p.
func (p *Proc) body(yield func(struct{}) bool) {
	defer func() {
		if r := recover(); r != nil && r != abortPanic {
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
	}()
	p.yieldFn = yield
	p.fn(p)
}

// yield parks the calling Proc until the scheduler resumes it. The caller
// must already have arranged to be woken (queued in the heap or on a
// Waiter). A proc resumed only to be shut down unwinds from here.
func (p *Proc) yield() {
	if !p.yieldFn(struct{}{}) {
		panic(abortPanic)
	}
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// ID returns the engine-unique process id.
func (p *Proc) ID() int { return p.id }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the process-local virtual time.
func (p *Proc) Now() Time { return p.now }

// Advance models local computation: the clock moves, no rescheduling
// happens. This is the fast path used for per-access CPU cost accounting.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	p.now += d
}

// Sleep advances the clock by d and yields so other processes with earlier
// wake-up times can run.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative Sleep")
	}
	p.WaitUntil(p.now + d)
}

// Yield re-queues the process at its current time and lets anything with an
// earlier (or equal, lower-id) wake time run first.
func (p *Proc) Yield() { p.WaitUntil(p.now) }

// WaitUntil blocks the process until virtual time t (no-op if t is in the
// process's past — but it still yields, keeping scheduling fair).
//
// When p would be the next proc Run pops — nothing queued wakes before it,
// or at the same instant with a lower id — the hand-off is skipped: Run
// would resume p straight away (a running proc implies a live one, so Run
// would not stop first), and the engine clock moves as the pop would have
// moved it. A proc that Run is shutting down always parks, so it unwinds.
func (p *Proc) WaitUntil(t Time) {
	if t > p.now {
		p.now = t
	}
	p.wakeAt = p.now
	e := p.eng
	if !p.finished && (len(e.queue) == 0 || e.queue.before(p, e.queue[0])) {
		if p.now > e.now {
			e.now = p.now
		}
		return
	}
	heap.Push(&e.queue, p)
	p.yield()
}

// procHeap orders by wakeAt, ties by id, so scheduling is deterministic.
type procHeap []*Proc

func (h procHeap) Len() int           { return len(h) }
func (h procHeap) Less(i, j int) bool { return h.before(h[i], h[j]) }

// before reports whether a runs before b: lower wakeAt, then lower id.
func (procHeap) before(a, b *Proc) bool {
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.id < b.id
}
func (h procHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *procHeap) Push(x any) {
	p := x.(*Proc)
	p.index = len(*h)
	*h = append(*h, p)
}
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}
