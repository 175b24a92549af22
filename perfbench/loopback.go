package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dilos/internal/memnode"
	"dilos/internal/pagetable"
	"dilos/internal/transport"
)

// loopback drives the real wire path: 4 KiB READs and WRITEs, three to
// one, at seeded pages, plus a 16-op Batch READ every 32nd call, through
// one wire-v2 transport.Client with 2 lanes to an in-process
// transport.Server over a memnode.Node on 127.0.0.1. It is a closed loop
// with 2 callers, because the client's real caller — the fault handler —
// waits for each reply. Each caller owns a disjoint set of pages and a
// byte shadow of them, so every read has a known expected content, and
// the server must have served exactly the ops the client sent.
//
// Loads: the wire, the server's shards, and the client's lanes. It is the
// only workload that leaves the simulator, so it has no virtual time.

const (
	lbCallers    = 2
	lbPages      = 2048 // pages per caller
	lbBatchEvery = 32
	lbBatchOps   = 16
	lbProtKey    = 0xd170
	lbStream     = 100_000 // calls per caller recorded for the replays
)

// lbOp is one generated call: a read or write of one page, or a batch
// read of lbBatchOps pages. Pages index the caller's own set.
type lbOp struct {
	write, batch bool
	pages        [lbBatchOps]int
	content      uint64 // seeds a write's bytes
}

// loopbackOp draws call c of a caller's stream.
func (g *rng) loopbackOp(c int) lbOp {
	var op lbOp
	if (c+1)%lbBatchEvery == 0 {
		op.batch = true
		for k := range op.pages {
			op.pages[k] = int(g.intn(lbPages))
		}
		return op
	}
	op.pages[0] = int(g.intn(lbPages))
	if op.write = g.intn(4) == 0; op.write {
		op.content = g.next()
	}
	return op
}

// pageContent fills b with the bytes seeded by v.
func pageContent(b []byte, v uint64) {
	for k := 0; k+8 <= len(b); k += 8 {
		binary.LittleEndian.PutUint64(b[k:], mix(v+uint64(k)))
	}
}

// lbSystem is one server, its node, and the client.
type lbSystem struct {
	node   *memnode.Node
	srv    *transport.Server
	cl     *transport.Client
	served chan error
}

func startLoopback() (*lbSystem, error) {
	s := &lbSystem{node: memnode.New(lbCallers*lbPages*memnode.PageSize, lbProtKey), served: make(chan error, 1)}
	s.srv = transport.NewServer(s.node)
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { s.served <- s.srv.Serve() }()
	if s.cl, err = transport.Dial(addr, lbProtKey, transport.WithLanes(2)); err != nil {
		s.srv.Close()
		<-s.served
		return nil, err
	}
	return s, nil
}

// close stops the client, the server and its accept loop, and waits.
func (s *lbSystem) close() {
	s.cl.Close()
	s.srv.Close()
	<-s.served
}

func (s *lbSystem) servedOps() int64 { return s.srv.Reads.Load() + s.srv.Writes.Load() }

// lbCaller is one closed-loop caller with its generator, shadow and
// reusable buffers.
type lbCaller struct {
	id     int
	gen    *rng
	shadow *pageShadow
	buf    []byte
	bufs   [lbBatchOps][]byte
	segs   [lbBatchOps][1]transport.Seg
	ops    []transport.BatchOp

	calls, segsSent, failed int64
	lat                     [][]int64 // host latency per call (ns) per slice, untraced
	pages                   []pagetable.VPN
}

func newCaller(seed uint64, id int) *lbCaller {
	c := &lbCaller{id: id, gen: newRNG(seed, 100+uint64(id)), shadow: newPageShadow(lbPages, memnode.PageSize),
		buf: make([]byte, memnode.PageSize), ops: make([]transport.BatchOp, lbBatchOps)}
	for k := range c.bufs {
		c.bufs[k] = make([]byte, memnode.PageSize)
	}
	return c
}

func (c *lbCaller) off(page int) uint64 { return uint64(c.id*lbPages+page) * memnode.PageSize }

// fill writes every page the caller owns (set-up).
func (c *lbCaller) fill(s *lbSystem, seed uint64) error {
	for p := 0; p < lbPages; p++ {
		pageContent(c.buf, mix(seed^uint64(c.id)<<32^uint64(p)))
		if err := s.cl.Write(c.off(p), c.buf); err != nil {
			return fmt.Errorf("fill page %d: %w", p, err)
		}
		c.shadow.set(p, c.buf)
		c.segsSent++
	}
	return nil
}

// call issues one generated op and checks what it read.
func (c *lbCaller) call(s *lbSystem, op lbOp, tr *tracer) {
	var err error
	switch {
	case op.batch:
		for k := range c.ops {
			c.segs[k][0] = transport.Seg{Off: c.off(op.pages[k]), Len: memnode.PageSize}
			c.ops[k] = transport.BatchOp{Op: transport.OpRead, Segs: c.segs[k][:], Data: c.bufs[k : k+1]}
		}
		tr.begin("transport.batch")
		err = s.cl.Batch(c.ops)
		tr.end()
		c.segsSent += lbBatchOps
		for k := range c.ops {
			if err == nil && !c.shadow.check(op.pages[k], c.bufs[k]) {
				err = fmt.Errorf("batch read of page %d: content mismatch", op.pages[k])
			}
		}
	case op.write:
		pageContent(c.buf, op.content)
		tr.begin("transport.write")
		err = s.cl.Write(c.off(op.pages[0]), c.buf)
		tr.end()
		c.segsSent++
		if err == nil {
			c.shadow.set(op.pages[0], c.buf)
		}
	default:
		tr.begin("transport.read")
		err = s.cl.Read(c.off(op.pages[0]), c.buf)
		tr.end()
		c.segsSent++
		if err == nil && !c.shadow.check(op.pages[0], c.buf) {
			err = fmt.Errorf("read of page %d: content mismatch", op.pages[0])
		}
	}
	if err != nil {
		c.failed++
	}
}

// run is the caller's closed loop until stop is set. Untraced, it keeps
// each call's latency in the bucket of the host-time slice it ended in.
func (c *lbCaller) run(s *lbSystem, start time.Time, ops *atomic.Int64, stop *atomic.Bool, tr *tracer) {
	for !stop.Load() {
		op := c.gen.loopbackOp(int(c.calls))
		if len(c.pages) < lbStream {
			n := 1
			if op.batch {
				n = lbBatchOps
			}
			for _, p := range op.pages[:n] {
				c.pages = append(c.pages, pagetable.VPN(c.off(p)/memnode.PageSize))
			}
		}
		t0 := time.Now()
		tr.begin("op")
		c.call(s, op, tr)
		tr.end()
		if tr == nil {
			t1 := time.Now()
			k := int(t1.Sub(start) / sliceDur)
			for len(c.lat) <= k {
				c.lat = append(c.lat, nil)
			}
			c.lat[k] = append(c.lat[k], int64(t1.Sub(t0)))
		}
		c.calls++
		ops.Add(1)
	}
}

// runCallers runs every caller's closed loop for the timed phase while
// this goroutine closes the host-time slices.
func runCallers(s *lbSystem, callers []*lbCaller, timed time.Duration, tr *tracer) *slicer {
	var ops atomic.Int64
	var stop atomic.Bool
	sl := newSlicer(timed)
	var wg sync.WaitGroup
	trs := make([]*tracer, len(callers))
	for id, c := range callers {
		trs[id] = tr.fork(id + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(s, sl.start.wall, &ops, &stop, trs[id])
		}()
	}
	for {
		time.Sleep(time.Until(sl.next))
		if sl.tick(time.Now(), ops.Load()) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	for id, c := range callers {
		tr.merge(trs[id])
		for k := range sl.lats {
			if k < len(c.lat) {
				sl.lats[k] = append(sl.lats[k], c.lat[k]...)
			}
		}
	}
	return sl
}

// lbRun is one server's life: set-up, then, when timed, both callers'
// closed loops.
type lbRun struct {
	setup   time.Duration
	slices  *slicer
	callers []*lbCaller
	stats   map[string]int64
	served  int64
	sent    int64
}

func runLoopbackOnce(seed uint64, timed time.Duration, tr *tracer) (*lbRun, error) {
	out := &lbRun{}
	rotor.step()
	t0 := time.Now()
	tr.begin("setup")
	s, err := startLoopback()
	if err != nil {
		tr.end()
		return nil, err
	}
	defer s.close()
	for id := 0; id < lbCallers; id++ {
		c := newCaller(seed, id)
		if err := c.fill(s, seed); err != nil {
			tr.end()
			return nil, err
		}
		out.callers = append(out.callers, c)
	}
	tr.end()
	out.setup = time.Since(t0)
	if timed > 0 {
		out.slices = runCallers(s, out.callers, timed, tr)
	}
	for _, c := range out.callers {
		out.sent += c.segsSent
	}
	out.served = s.servedOps()
	out.stats = s.cl.Stats.Snapshot()
	return out, nil
}

func (o *lbRun) tally(r *report) {
	for _, c := range o.callers {
		r.attempted += c.calls
		r.failed += c.failed
	}
	if o.served != o.sent {
		r.fail("memnode served %d ops but the client sent %d", o.served, o.sent)
	}
}

// runLoopback is one benchmark run of the loopback workload, shaped like
// runSim: setupReps set-ups (the last one timed), or on the traced run an
// untraced half, a traced half, and the layer replays.
func runLoopback(seed uint64, seconds time.Duration, traced bool, r *report) error {
	var setups []float64
	reps, timed := setupReps, seconds
	if traced {
		reps, timed = 1, seconds/2
	}
	var base *lbRun
	for k := 0; k < reps; k++ {
		t := time.Duration(0)
		if k == reps-1 {
			t = timed
		}
		o, err := runLoopbackOnce(seed, t, nil)
		if err != nil {
			return err
		}
		setups = append(setups, o.setup.Seconds())
		base = o
		releaseMemory()
	}
	base.tally(r)
	r.note("model: loopback runs on the real wire and has no virtual time; vt_* read 0")
	if !traced {
		r.set("setup_s", median(setups), int64(len(setups)))
		base.slices.setEndToEnd(r)
		r.set("peak_rss_mb", peakRSSMB(), 1)
		return nil
	}

	tr := newTracer()
	tracedRun, err := runLoopbackOnce(seed, timed, tr)
	if err != nil {
		return err
	}
	tracedRun.tally(r)
	r.set("failed_op_ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	setOverhead(r, base.slices, tracedRun.slices)
	base.slices.setP99(r)
	for _, name := range []string{"read", "write"} {
		d := tr.durs("transport." + name)
		r.set("transport."+name+"_us_p50", percentile(d, 50)/1e3, int64(len(d)))
		r.set("transport."+name+"_us_p99", percentile(d, 99)/1e3, int64(len(d)))
	}
	b := tr.durs("transport.batch")
	r.set("transport.batch_us_p50", percentile(b, 50)/1e3, int64(len(b)))
	r.set("transport.allocs_per_op", base.slices.total().allocsPerOp(), base.slices.total().ops)
	for metric, key := range map[string]string{
		"transport.retries":       "transport.retries",
		"transport.timeouts":      "transport.timeouts",
		"transport.status_errors": "transport.status_errors",
		"transport.inflight_peak": "transport.inflight.peak",
	} {
		r.set(metric, float64(tracedRun.stats[key]), 1)
	}
	r.set("memnode.served_ops", float64(tracedRun.served), 1)
	var s streams
	for _, c := range base.callers {
		s.pages = append(s.pages, c.pages...)
	}
	r.set("sim.run_host_s", runReplays(r, tr, &s).Seconds(), 1)
	return finishTrace(r, tr, "loopback")
}
