package main

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// The run shape. Everything that is timed — this harness, its clients and
// the pipd under test — runs on ONE CPU (pin.go): the box is a few cores of
// a shared host, and work that hops between them measures the hypervisor's
// wake-ups, not the program. A run is cut into rounds, each on a server
// process and data directory of its own, because the same binary settles up
// to a tenth faster or slower from one start to the next and then stays
// within 2-3 % for as long as the processes live: ten one-server runs of
// point-read spread 8-11 % of their median, ten five-round runs 3-4 %.
const (
	rounds        = 5 // fresh server instances per run; every metric is the median across them
	roundRestarts = 3 // SIGKILL/restart repetitions per round; recovery_s is the median of all
	warmShare     = 4 // each round warms up for its measured time / warmShare
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same
// names and units (bench_test.go holds them together).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"p50_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MiB"},
}

// env is where a run finds its server binary and keeps its files.
type env struct {
	pipdBin string
	out     string // result.json, traces, pipd logs
	work    string // data directories, removed when the run ends
}

// runResult is one (workload, trace) run.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Diagnostics are measured like Metrics but carry no bound: recovery
	// time and the tail and write latencies of the untraced run, too
	// unsteady on a shared box to gate a change on, kept for paired
	// comparisons.
	Diagnostics map[string]summary `json:"diagnostics,omitempty"`
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// loadWire sends the catalog's statements through one connection, each text
// prepared once.
func loadWire(ctx context.Context, addr string, cat *catalog) error {
	db, err := dial(addr)
	if err != nil {
		return err
	}
	defer db.Close()
	conn, err := db.Conn(ctx)
	if err != nil {
		return err
	}
	defer conn.Close()
	prepared := map[string]*sql.Stmt{}
	defer func() {
		for _, st := range prepared {
			st.Close()
		}
	}()
	for _, ls := range cat.statements() {
		st := prepared[ls.text]
		if st == nil {
			if st, err = conn.PrepareContext(ctx, ls.text); err != nil {
				return fmt.Errorf("prepare %.60s: %w", ls.text, err)
			}
			prepared[ls.text] = st
		}
		if _, err := st.ExecContext(ctx, ls.args...); err != nil {
			return fmt.Errorf("load %.60s: %w", ls.text, err)
		}
	}
	return nil
}

// setupOnce is the timed set-up: create the data directory, start a fresh
// pipd on it, load the catalog through the wire and ask every read of the
// workload once. It returns the samples of that first pass.
func (e *env) setupOnce(ctx context.Context, tag string, w *workload, cat *catalog, log io.Writer) (*pipd, time.Duration, []sample, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, nil, err
	}
	dir := filepath.Join(e.work, tag)
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, nil, err
	}
	p := &pipd{bin: e.pipdBin, addr: addr, args: durable(dir), log: log}
	if err := p.start(ctx); err != nil {
		return nil, 0, nil, err
	}
	err = loadWire(ctx, addr, cat)
	var first []sample
	if err == nil {
		first, err = firstPass(ctx, addr, w)
	}
	if err != nil {
		p.kill()
		return nil, 0, nil, err
	}
	return p, time.Since(t0), first, nil
}

// firstPass sends every read statement of the workload once for each of its
// keys, in order, on one connection: the loaded server's first use of every
// statement and key. It is part of set-up, so that what a build defers from
// the load to first use is still counted there, and so that set-up is mostly
// the server's own work: the load alone is a dozen fsyncs around 40 ms of
// computing, and this disk's fsync moves between 0.1 and 2 ms.
func firstPass(ctx context.Context, addr string, w *workload) ([]sample, error) {
	db, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	// Samples are timed against an origin no pass reaches, so that, like
	// warm-up, they are checked and counted but belong to no measured time.
	c, err := newClient(ctx, db, w, nil, time.Now().Add(24*time.Hour), nil)
	if err != nil {
		return nil, err
	}
	defer c.close()
	for i, st := range w.stmts {
		for _, key := range st.keys {
			c.do(ctx, op{stmt: i, key: key}, time.Now())
		}
	}
	return c.samples, ctx.Err()
}

// countRows asks the server how many rows a table holds.
func countRows(ctx context.Context, addr, table string) (int, error) {
	db, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	var n float64
	if err := db.QueryRowContext(ctx, "SELECT expected_count() FROM "+table).Scan(&n); err != nil {
		return 0, fmt.Errorf("count %s: %w", table, err)
	}
	return int(math.Round(n)), nil
}

// checkCounts compares every table's row count with what was acknowledged;
// events additionally holds extra rows written after the load.
func checkCounts(ctx context.Context, res *runResult, addr string, cat *catalog, extraEvents int, when string) error {
	for _, t := range cat.tables {
		want := len(t.rows)
		if t.name == "events" {
			want += extraEvents
		}
		got, err := countRows(ctx, addr, t.name)
		if err != nil {
			return err
		}
		if got != want {
			res.Failed += abs(want - got)
			res.problem("%s: table %s holds %d rows, %d were acknowledged", when, t.name, got, want)
		}
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// roundResult is what one round measured.
type roundResult struct {
	setupS     float64
	recoveryS  []float64
	rssMiB     float64
	cpuMsPerOp float64
	reads      windowStats
	writes     windowStats
	samples    []sample
}

// round runs one round of a workload: a timed set-up on a fresh directory,
// the crash restarts, the closed loop (warm-up, then span of measured time)
// and, where the workload writes, the final crash check.
func (e *env) round(ctx context.Context, res *runResult, w *workload, cat *catalog, seed uint64, r int, span time.Duration, log io.Writer) (*roundResult, error) {
	tag := fmt.Sprintf("%s-%d", w.name, r)
	defer os.RemoveAll(filepath.Join(e.work, tag))
	p, took, first, err := e.setupOnce(ctx, tag, w, cat, log)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	out := &roundResult{setupS: took.Seconds()}

	// Recovery over the fixed set-up log, then the first durability check.
	for i := 0; i < roundRestarts; i++ {
		d, err := p.crashRestart(ctx)
		if err != nil {
			return nil, err
		}
		out.recoveryS = append(out.recoveryS, d.Seconds())
	}
	if err := checkCounts(ctx, res, p.addr, cat, 0, "after set-up crashes"); err != nil {
		return nil, err
	}

	// Timed phase, with pipd's CPU clock read at both edges of the measured
	// time and its memory high-water mark at the first: once set-up, recovery
	// and warm-up are done, not at the end, because ingest-mixed's catalog
	// grows with every insert and a faster build would look like a fatter one.
	origin := time.Now().Add(span / warmShare)
	type procStat struct{ cpu0, cpu1, rss float64 }
	proc := make(chan procStat, 1)
	pid := p.pid()
	go func() {
		var ps procStat
		time.Sleep(time.Until(origin))
		ps.cpu0, _ = cpuSeconds(pid)
		ps.rss, _ = rssPeakMiB(pid)
		time.Sleep(time.Until(origin.Add(span)))
		ps.cpu1, _ = cpuSeconds(pid)
		proc <- ps
	}()
	samples, acked, err := drive(ctx, p.addr, w, seed, r, w.clients, origin, span, nil)
	if err != nil {
		return nil, err
	}
	ps := <-proc
	out.samples, out.rssMiB = append(first, samples...), ps.rss

	isWrite := func(s *sample) bool { return w.stmts[s.stmt].write }
	out.reads = windows(samples, int64(span), 1, func(s *sample) bool { return !isWrite(s) })[0]
	if out.reads.n == 0 {
		return nil, fmt.Errorf("no read completed in round %d of %s", r, span)
	}
	measured := out.reads.n
	if w.preload > 0 {
		out.writes = windows(samples, int64(span), 1, isWrite)[0]
		measured += out.writes.n
	}
	out.cpuMsPerOp = (ps.cpu1 - ps.cpu0) * 1e3 / float64(measured)

	if w.preload > 0 {
		// Second crash: every acknowledged insert must have survived.
		if _, err := p.crashRestart(ctx); err != nil {
			return nil, err
		}
		if err := checkCounts(ctx, res, p.addr, cat, acked, "after the final crash"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measure is the untraced end-to-end run of one workload.
func (e *env) measure(ctx context.Context, w workload, seed uint64, seconds int) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: map[string]summary{}}
	cat := buildCatalog(w.preload)
	log, err := os.Create(filepath.Join(e.out, "pipd-"+w.name+".log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()

	span := time.Duration(seconds) * time.Second / rounds
	rs := make([]*roundResult, rounds)
	var samples []sample
	var recovery []float64
	for r := range rs {
		if rs[r], err = e.round(ctx, res, &w, cat, seed, r, span, log); err != nil {
			return nil, err
		}
		samples = append(samples, rs[r].samples...)
		recovery = append(recovery, rs[r].recoveryS...)
	}
	across := func(unit string, f func(*roundResult) float64) summary {
		v := make([]float64, rounds)
		for r := range rs {
			v[r] = f(rs[r])
		}
		return summarize(unit, v)
	}
	res.Metrics["setup_s"] = across("s", func(r *roundResult) float64 { return r.setupS })
	res.Metrics["ops_s"] = across("1/s", func(r *roundResult) float64 { return r.reads.opsPerSec })
	res.Metrics["p50_ms"] = across("ms", func(r *roundResult) float64 { return r.reads.p50 })
	res.Metrics["first_row_p50_ms"] = across("ms", func(r *roundResult) float64 { return r.reads.firstP50 })
	res.Metrics["cpu_ms_per_op"] = across("ms", func(r *roundResult) float64 { return r.cpuMsPerOp })
	res.Metrics["rss_peak_mb"] = across("MiB", func(r *roundResult) float64 { return r.rssMiB })
	res.Diagnostics = map[string]summary{
		"recovery_s": summarize("s", recovery),
		"p95_ms":     across("ms", func(r *roundResult) float64 { return r.reads.p95 }),
	}
	if w.preload > 0 {
		res.Diagnostics["write_ops_s"] = across("1/s", func(r *roundResult) float64 { return r.writes.opsPerSec })
		res.Diagnostics["write_p50_ms"] = across("ms", func(r *roundResult) float64 { return r.writes.p50 })
		res.Diagnostics["write_p95_ms"] = across("ms", func(r *roundResult) float64 { return r.writes.p95 })
	}

	// Every operation issued counts, first pass and warm-up included.
	res.Attempted = len(samples)
	for i := range samples {
		if samples[i].failed {
			res.Failed++
		}
	}

	ref, err := newReference(ctx, cat)
	if err != nil {
		return nil, err
	}
	acc, err := verifyReads(ctx, res, ref, &w, cat, samples)
	if err != nil {
		return nil, err
	}
	acc.check(res)
	res.Correct = res.Failed == 0
	return res, nil
}

// accuracy collects the relative errors of sampled answers against their
// closed-form truth.
type accuracy struct{ rel []float64 }

// add compares the rows of one result with the statement's truth, if any.
func (a *accuracy) add(st *statement, cat *catalog, key int64, rows [][]any) error {
	if st.truth == nil {
		return nil
	}
	for _, row := range rows {
		truth, ok := st.truth(cat.data, key, row)
		if !ok {
			continue
		}
		got, isFloat := row[len(row)-1].(float64)
		if !isFloat {
			return fmt.Errorf("%s(%d): answer %v is not a number", st.name, key, row[len(row)-1])
		}
		a.rel = append(a.rel, math.Abs(got-truth)/truth)
	}
	return nil
}

// rms and median are 0 when no answer had a truth to compare with.
func (a *accuracy) rms() float64 {
	if len(a.rel) == 0 {
		return 0
	}
	var sq float64
	for _, r := range a.rel {
		sq += r * r
	}
	return math.Sqrt(sq / float64(len(a.rel)))
}

func (a *accuracy) median() float64 {
	if len(a.rel) == 0 {
		return 0
	}
	return summarize("ratio", a.rel).Value
}

// errCeiling bounds the median relative error: the engine's default
// (ε, δ) = (0.05, 0.05) promises a relative error below 0.05 for 95 % of
// answers, so the median sits far below it unless samples are being skipped.
// The median, not the RMS: about one conf() row in a hundred stops its
// adaptive sampling on 30 identical outcomes and answers exactly 0 or 1,
// which is an estimator-calibration item of its own (ROADMAP) and would
// fail an RMS ceiling on the seeds that happen to draw such a row.
const errCeiling = 0.05

func (a *accuracy) check(res *runResult) {
	if m := a.median(); m > errCeiling {
		res.Failed++
		res.problem("median relative error %.4f of sampled answers against closed-form truth exceeds %.2f", m, errCeiling)
	}
}

// verifyReads replays every distinct read in the reference and counts the
// samples whose wire result hashed differently. It returns the errors of
// the answers that have a closed-form truth.
func verifyReads(ctx context.Context, res *runResult, ref *reference, w *workload, cat *catalog, samples []sample) (*accuracy, error) {
	want := map[op]uint64{}
	acc := &accuracy{}
	for i := range samples {
		s := &samples[i]
		st := &w.stmts[s.stmt]
		if st.write || s.failed {
			continue
		}
		o := op{stmt: int(s.stmt), key: s.key}
		h, seen := want[o]
		if !seen {
			rr, err := ref.read(ctx, nil, 0, st.text, s.key)
			if err != nil {
				return nil, fmt.Errorf("reference %s(%d): %w", st.name, s.key, err)
			}
			h = rr.hash
			want[o] = h
			if err := acc.add(st, cat, s.key, rr.rows); err != nil {
				return nil, err
			}
		}
		if s.hash != h {
			res.Failed++
			if len(res.Problems) < 8 {
				res.problem("%s(%d): wire result hash %x, in-process reference %x", st.name, s.key, s.hash, h)
			}
		}
	}
	return acc, nil
}
