package main

import (
	"fmt"
	"strings"
	"time"
)

// A timed phase is cut into fixed host-time slices. Each slice keeps its
// own cost and latency samples, and the per-op host metrics are medians
// over slices: a burst of interference from outside the process moves
// one slice, not the result. Slices are short so that such a burst
// covers few of them. Each slice runs on the next CPU (see cpuRotor).
const sliceDur = 250 * time.Millisecond

type slicer struct {
	start, last hostSample
	lastOps     int64
	next        time.Time
	end         time.Time
	costs       []hostCost
	lats        [][]int64 // latency samples (ns) per slice
}

// newSlicer starts a phase of the given length now.
func newSlicer(length time.Duration) *slicer {
	h := sampleHost()
	end := h.wall.Add(length)
	return &slicer{start: h, last: h, next: earliest(h.wall.Add(sliceDur), end), end: end, lats: [][]int64{nil}}
}

func earliest(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// tick closes the current slice if now has reached its end, with ops the
// phase's op count so far. It reports whether the phase is over.
func (s *slicer) tick(now time.Time, ops int64) bool {
	if now.Before(s.next) {
		return false
	}
	h := sampleHost()
	s.costs = append(s.costs, costBetween(s.last, h, ops-s.lastOps))
	s.last, s.lastOps = h, ops
	rotor.step()
	if !s.next.Before(s.end) {
		return true
	}
	s.next = earliest(s.next.Add(sliceDur), s.end)
	s.lats = append(s.lats, nil)
	return false
}

// record adds one latency sample to the current slice.
func (s *slicer) record(ns int64) {
	k := len(s.lats) - 1
	s.lats[k] = append(s.lats[k], ns)
}

// total is the whole phase's cost.
func (s *slicer) total() hostCost { return costBetween(s.start, s.last, s.lastOps) }

func (s *slicer) medianOpsPerSec() float64 {
	var tput []float64
	for _, c := range s.costs {
		tput = append(tput, c.opsPerSec())
	}
	return median(tput)
}

// setOverhead sets trace.overhead_pct: the traced phase's throughput
// against the untraced one's, in percent (negative when tracing costs).
func setOverhead(r *report, untraced, traced *slicer) {
	u, t := untraced.medianOpsPerSec(), traced.medianOpsPerSec()
	r.set("trace.overhead_pct", 100*(t-u)/u, int64(len(traced.costs)))
}

// latencyMedian returns the median over slices of each slice's p-th
// latency percentile (µs), and the number of samples behind it.
func (s *slicer) latencyMedian(p float64) (float64, int64) {
	var qs []float64
	n := int64(0)
	for i := range s.costs {
		if i < len(s.lats) && len(s.lats[i]) > 0 {
			qs = append(qs, percentile(s.lats[i], p)/1e3)
			n += int64(len(s.lats[i]))
		}
	}
	return median(qs), n
}

// setEndToEnd sets the per-op end-to-end metrics as medians over slices.
// The tail is p90: on a 2-vCPU virtual machine the p99 moves with the
// hypervisor's scheduling by more than any bound would allow, so the
// traced run reports it (wall_p99_us) instead.
func (s *slicer) setEndToEnd(r *report) {
	var cpu, allocs []float64
	for _, c := range s.costs {
		cpu = append(cpu, c.cpuNsPerOp())
		allocs = append(allocs, c.allocsPerOp())
	}
	ops := s.total().ops
	r.set("ops_per_s", s.medianOpsPerSec(), ops)
	r.set("cpu_ns_per_op", median(cpu), ops)
	r.set("allocs_per_op", median(allocs), ops)
	p50, n := s.latencyMedian(50)
	p90, _ := s.latencyMedian(90)
	r.set("wall_p50_us", p50, n)
	r.set("wall_p90_us", p90, n)
	var ts []string
	for _, c := range s.costs {
		ts = append(ts, fmt.Sprintf("%.0f", c.opsPerSec()))
	}
	r.note("host metrics: medians over %d slices of %v (%d ops, %d latency samples); ops/s per slice: %s",
		len(s.costs), sliceDur, ops, n, strings.Join(ts, " "))
}

// setP99 sets wall_p99_us, the median over slices of each slice's p99.
func (s *slicer) setP99(r *report) {
	p99, n := s.latencyMedian(99)
	r.set("wall_p99_us", p99, n)
}
