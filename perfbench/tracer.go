package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// The traced run records spans at the benchmark's own layer boundaries —
// around each op, each call it makes into kvcache, transport or a
// DDCProc, Engine.Run, set-up and each replay loop — keeps them in memory
// and writes them out when the run ends. Spans nest per goroutine, so a
// span's self time is its duration minus the time its children cover.
// Untraced runs pass a nil *tracer; every method is a no-op on nil.

const (
	maxKeptSpans = 200_000 // spans written out per run; aggregates cover all
	maxDurs      = 1 << 20 // duration samples kept per span name
)

type tracer struct {
	t0      time.Time
	tid     int
	nextID  *atomic.Int64 // shared by forks on other goroutines
	open    []openSpan
	spans   []span
	dropped int64
	agg     map[string]*spanAgg
}

type openSpan struct {
	name              string
	id, parent        int64
	start, childTotal int64
}

type span struct {
	name       string
	id, parent int64
	tid        int
	start, end int64 // ns since the tracer's epoch
}

// spanAgg is one span name's totals: count, total and self time, and the
// first maxDurs durations for percentiles.
type spanAgg struct {
	count, total, self int64
	durs               []int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nextID: new(atomic.Int64), agg: map[string]*spanAgg{}}
}

// fork returns a tracer for another goroutine sharing t's epoch and id
// space; merge folds it back once that goroutine has finished.
func (t *tracer) fork(tid int) *tracer {
	if t == nil {
		return nil
	}
	return &tracer{t0: t.t0, tid: tid, nextID: t.nextID, agg: map[string]*spanAgg{}}
}

// begin opens a span whose parent is the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	var parent int64
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	t.open = append(t.open, openSpan{name: name, id: t.nextID.Add(1), parent: parent, start: int64(time.Since(t.t0))})
}

// end closes the innermost open span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	d := now - o.start
	if n > 0 {
		t.open[n-1].childTotal += d
	}
	a := t.agg[o.name]
	if a == nil {
		a = &spanAgg{}
		t.agg[o.name] = a
	}
	a.count++
	a.total += d
	a.self += d - o.childTotal
	if len(a.durs) < maxDurs {
		a.durs = append(a.durs, d)
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{name: o.name, id: o.id, parent: o.parent, tid: t.tid, start: o.start, end: now})
	} else {
		t.dropped++
	}
	return d
}

// merge folds a forked tracer's spans and aggregates into t.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	for name, a := range o.agg {
		b := t.agg[name]
		if b == nil {
			b = &spanAgg{}
			t.agg[name] = b
		}
		b.count += a.count
		b.total += a.total
		b.self += a.self
		b.durs = append(b.durs, a.durs[:min(len(a.durs), maxDurs-min(len(b.durs), maxDurs))]...)
	}
	room := max(maxKeptSpans-len(t.spans), 0)
	t.spans = append(t.spans, o.spans[:min(room, len(o.spans))]...)
	t.dropped += o.dropped + int64(len(o.spans)-min(room, len(o.spans)))
}

// durs returns the recorded durations of one span name (ns).
func (t *tracer) durs(name string) []int64 {
	if t == nil || t.agg[name] == nil {
		return nil
	}
	return t.agg[name].durs
}

// summary renders the per-name self-time table, largest self time first.
func (t *tracer) summary() []string {
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	slices.SortFunc(names, func(a, b string) int {
		return cmp.Or(cmp.Compare(t.agg[b].self, t.agg[a].self), cmp.Compare(a, b))
	})
	out := []string{fmt.Sprintf("  %-22s %10s %12s %12s %12s", "span", "count", "total_ms", "self_ms", "p50_us")}
	for _, n := range names {
		a := t.agg[n]
		out = append(out, fmt.Sprintf("  %-22s %10d %12.3f %12.3f %12.3f",
			n, a.count, float64(a.total)/1e6, float64(a.self)/1e6, percentile(a.durs, 50)/1e3))
	}
	return out
}

// write saves the kept spans as a Chrome trace-event file (loadable in
// Perfetto): one complete event per span, with its id and parent id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":%d},\"traceEvents\":[\n", t.dropped)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}%s\n",
			s.name, s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, s.parent, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
