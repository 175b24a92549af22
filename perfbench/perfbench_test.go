package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dilos/internal/core"
)

// A seed always yields the same op stream, and another seed another one.
func TestOpStreamsRepeatForASeed(t *testing.T) {
	draw := func(seed uint64) []any {
		var out []any
		rf, lb, kv := newRNG(seed, 1), newRNG(seed, 100), newRNG(seed, 2)
		for i := 0; i < 2000; i++ {
			page, write := seqscanOp(i, seqscanPages)
			out = append(out, rf.randfaultOp(16384), lb.loopbackOp(i), kv.prefillLen(),
				page, write, seqValue(seed, i/seqscanPages, page))
		}
		return out
	}
	a, b, c := draw(11), draw(11), draw(12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 11 drew %v then %v at position %d", a[i], b[i], i)
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 11 and 12 drew identical streams")
	}
}

// The shadows flag a planted mismatch, alone and inside a workload's
// end-of-run read-back.
func TestShadowFlagsPlantedMismatch(t *testing.T) {
	ws := newWordShadow(4)
	ws.set(2, 7)
	if !ws.check(2, 7) || ws.check(2, 8) || ws.mismatches != 1 {
		t.Fatalf("word shadow: mismatches=%d after one planted mismatch", ws.mismatches)
	}
	ps := newPageShadow(2, 16)
	page := []byte("0123456789abcdef")
	ps.set(1, page)
	bad := append([]byte(nil), page...)
	bad[9] ^= 1
	if !ps.check(1, page) || ps.check(1, bad) || ps.mismatches != 1 {
		t.Fatalf("page shadow: mismatches=%d after one planted mismatch", ps.mismatches)
	}

	sys, st, err := randfaultSpec.build(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := st.(*randfault)
	var clean, planted int64
	sys.Launch("test", 0, func(sp *core.DDCProc) {
		if err := w.fill(sp); err != nil {
			t.Error(err)
			return
		}
		clean = w.verify(sp)
		w.shadow.set(123, w.shadow.want[123]+1) // the program now "returns" a stale value
		planted = w.verify(sp)
	})
	sys.Eng.Run()
	if clean != 0 || planted != 1 {
		t.Fatalf("read-back found %d mismatches clean and %d with one planted; want 0 and 1", clean, planted)
	}
}

// Every simulator workload's window — virtual-time results, recorded
// streams and registry counters — repeats byte for byte for a seed and
// differs for another seed.
func TestSameSeedWindowRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulator workload's window five times")
	}
	for name, spec := range simSpecs {
		run := func(seed uint64) string {
			r, err := runSimOnce(spec, seed, simOpts{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.failed != 0 {
				t.Fatalf("%s: %d failed ops", name, r.failed)
			}
			return string(r.win.print)
		}
		a := run(5)
		if b := run(5); a != b {
			t.Errorf("%s: two runs of seed 5 differ", name)
		}
		if name != "seqscan" && run(6) == a { // seqscan's addresses do not depend on the seed
			t.Errorf("%s: seeds 5 and 6 gave identical windows", name)
		}
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints, and a
// printed result carries exactly those names and units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", c.what, len(c.declared), len(c.defs))
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: declared %s (%s), printed %s (%s)", c.what, i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}

		var out strings.Builder
		newReport(0).print(&out, c.defs)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Metrics map[string]struct{ Unit string }
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the JSON result: %v", c.what, err)
		}
		if len(res.Metrics) != len(c.declared) {
			t.Errorf("%s: result carries %d metrics, want %d", c.what, len(res.Metrics), len(c.declared))
		}
		for _, d := range c.declared {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: result lacks %s in %s", c.what, d.Name, d.Unit)
			}
		}
	}
}
