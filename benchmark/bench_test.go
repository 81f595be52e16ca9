package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestQuantileAndSummary(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.95, 4.8}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single value: got %v", got)
	}
	sum := summarize("ms", []float64{5, 1, 4, 2, 3}) // unsorted on purpose
	if sum.Value != 3 || sum.Q1 != 2 || sum.Q3 != 4 || sum.N != 5 || sum.Unit != "ms" {
		t.Errorf("summarize = %+v", sum)
	}
	even := summarize("s", []float64{1, 2, 3, 4})
	if even.Value != 2.5 || even.Q1 != 1.75 || even.Q3 != 3.25 {
		t.Errorf("even summarize = %+v", even)
	}
}

func TestWindows(t *testing.T) {
	const ms = int64(1e6)
	samples := []sample{
		{start: -5 * ms, end: 1 * ms},                 // started in warm-up: dropped
		{start: 0, first: 1 * ms, end: 2 * ms},        // window 0, 2 ms
		{start: 3 * ms, first: 5 * ms, end: 7 * ms},   // window 0, 4 ms
		{start: 8 * ms, first: 12 * ms, end: 14 * ms}, // ends in window 1, 6 ms
		{start: 15 * ms, end: 19 * ms, stmt: 1},       // filtered out by keep
		{start: 18 * ms, end: 21 * ms},                // ends past the last window: dropped
	}
	ws := windows(samples, 10*ms, 2, func(s *sample) bool { return s.stmt == 0 })
	if len(ws) != 2 || ws[0].n != 2 || ws[1].n != 1 {
		t.Fatalf("window counts = %+v", ws)
	}
	if ws[0].opsPerSec != 200 || ws[1].opsPerSec != 100 {
		t.Errorf("ops/s = %v, %v", ws[0].opsPerSec, ws[1].opsPerSec)
	}
	if ws[0].p50 != 3 || ws[1].p50 != 6 || ws[0].firstP50 != 1.5 || ws[1].firstP50 != 4 {
		t.Errorf("latencies = %+v", ws)
	}
	if got := column(ws, func(x windowStats) float64 { return x.p50 }); got[0] != 3 || got[1] != 6 {
		t.Errorf("column = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},       // overlaps b on [40,50]
		{ID: 2, Parent: 0, Name: "b", Start: 40, End: 70},       // union with a covers [10,70]
		{ID: 3, Parent: 1, Name: "leaf", Start: 20, End: 30},    // nested two deep
		{ID: 4, Parent: 0, Name: "zero", Start: 80, End: 80},    // zero-length child
		{ID: 5, Parent: 0, Name: "out", Start: 95, End: 120},    // sticks out of the parent
		{ID: 6, Parent: -1, Name: "root", Start: 200, End: 230}, // second request, no children
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root": (100 - 60 - 5) + 30, // [10,70] and [95,100] are covered
		"a":    40 - 10,
		"b":    30,
		"leaf": 10,
		"zero": 0,
		"out":  25,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}

func TestOpStream(t *testing.T) {
	for _, w := range workloads() {
		a, b := newOpStream(&w, w.pattern, 7, 0, 0, 2), newOpStream(&w, w.pattern, 7, 0, 0, 2)
		seen := map[op]int{}
		reads := 0
		for i := 0; i < 4000; i++ {
			x, y := a.next(), b.next()
			if x != y {
				t.Fatalf("%s: same seed and client diverged at op %d: %v vs %v", w.name, i, x, y)
			}
			if !w.stmts[x.stmt].write {
				seen[x]++
				reads++
			}
		}
		// Shuffled decks: every key of a statement is used equally often
		// (within one, for the unfinished last pass).
		for i := range w.stmts {
			lo, hi := reads, 0
			for o, n := range seen {
				if o.stmt == i {
					lo, hi = min(lo, n), max(hi, n)
				}
			}
			if hi-lo > 1 {
				t.Errorf("%s/%s: key use ranges from %d to %d", w.name, w.stmts[i].name, lo, hi)
			}
		}
		if w.pacedEvery == 0 {
			continue
		}
		// The paced connections write ids past the preload that never collide.
		ids := map[int64]bool{}
		for c := 0; c < pacedConns; c++ {
			st := newOpStream(&w, []int{w.paced}, 7, 0, w.clients+c, w.clients+pacedConns)
			for i := 0; i < 1000; i++ {
				x := st.next()
				if !w.stmts[x.stmt].write || x.key < int64(w.preload) || ids[x.key] {
					t.Fatalf("%s: paced op %v is no fresh write", w.name, x)
				}
				ids[x.key] = true
			}
		}
	}
}

// TestSpecMatchesCode holds BENCHMARK.json and the harness together: the
// same workloads, the same metric names and units, well-formed names.
func TestSpecMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("spec has %d workloads, code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: spec %q / code %q (or their why differs)", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || !nameRE.MatchString(w.name) {
			t.Errorf("workload %q: name or why out of the contract's limits", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: spec has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s[%d]: spec %s (%s), code %s (%s)", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s: %s is malformed", kind, d.name)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: %s has a bad bound", kind, d.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric, lower is better")
	}
}

// TestSmoke runs every workload for one second against a real pipd, both
// untraced and traced: every metric is present, finite and named as in
// BENCHMARK.json, wire results hash like the in-process reference, and both
// crash checks find every acknowledged row (any miss sets Failed).
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	e := &env{pipdBin: filepath.Join(dir, "pipd"), out: dir, work: filepath.Join(dir, "work")}
	if err := buildPipd(ctx, ".", e.pipdBin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var res *runResult
			var err error
			if trace == 0 {
				res, err = e.measure(ctx, w, 42, 1)
			} else {
				res, err = e.tracePass(ctx, w, 42, 1)
			}
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d %v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%d: metric %s = %+v (present=%v)", w.name, trace, d.name, m, ok)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
		for _, f := range []string{"trace-" + w.name + ".json", "trace-" + w.name + "-inproc.json", "pipd-" + w.name + ".log"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
	if pid := otherPipd(); pid != 0 {
		t.Errorf("pipd %d survived the runs", pid)
	}
}
