package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// hostSample is the process-wide cost counters at one instant: wall
// clock, user+sys CPU of every thread (getrusage), and heap allocations
// (runtime.MemStats.Mallocs). Deltas between two samples attribute the
// work of every goroutine — daemons, GC, the transport's readers — to the
// phase between them.
type hostSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
}

func sampleHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostSample{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostCost is what a timed phase spent on the host.
type hostCost struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
}

func costBetween(a, b hostSample, ops int64) hostCost {
	return hostCost{ops: ops, wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, mallocs: b.mallocs - a.mallocs}
}

func (c hostCost) opsPerSec() float64 { return ratio(float64(c.ops), c.wall.Seconds()) }

func (c hostCost) cpuNsPerOp() float64 { return ratio(float64(c.cpu.Nanoseconds()), float64(c.ops)) }

func (c hostCost) allocsPerOp() float64 { return ratio(float64(c.mallocs), float64(c.ops)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-th percentile of xs (sorting a
// copy), or 0 for no samples.
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// median of float samples (mean of the middle two for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// releaseMemory collects the previous system and returns its pages to
// the OS, so one run's set-ups do not stack up in the resident set.
func releaseMemory() { debug.FreeOSMemory() }
