package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"pip/internal/core"
	"pip/internal/expr"
	"pip/internal/server"
	psql "pip/internal/sql"
	"pip/internal/wal"
)

// perLayer lists every per-layer metric; BENCHMARK.json names the same set.
// A metric that does not apply to a workload reads 0 there (wal.* on the
// read-only workloads, expr.* outside sampled-agg).
var perLayer = []metricDef{
	// Additive: mean µs per operation; these sum to trace.wire_mean_us.
	{"sql.parse_us", "us"},
	{"sql.plan_us", "us"},
	{"sql.exec_us", "us"},
	{"sampler.busy_us", "us"},
	{"server.encode_us", "us"},
	{"driver.decode_us", "us"},
	{"wal.commit_us", "us"},
	{"server.wire_us", "us"},
	{"trace.wire_mean_us", "us"},
	{"trace.wire_p50_us", "us"},
	{"trace.overhead_share", "ratio"},
	{"trace.sampler_expr_share", "ratio"},
	// Intensities and counts.
	{"sql.rows_examined_per_row_out", "ratio"},
	{"expr.compile_us", "us"},
	{"expr.eval_ns_per_sample", "ns"},
	{"sampler.ns_per_sample", "ns"},
	{"sampler.samples_per_op", "count"},
	{"sampler.accept_rate", "ratio"},
	{"sampler.closed_form_hits_per_op", "count"},
	{"sampler.escalations_per_op", "count"},
	{"sampler.rms_rel_err", "ratio"},
	{"sampler.median_rel_err", "ratio"},
	{"server.encode_us_per_row", "us"},
	{"server.bytes_per_row", "B"},
	{"server.rows_per_op", "count"},
	{"server.handler_us", "us"},
	{"server.http_floor_us", "us"},
	{"server.session_create_us", "us"},
	{"driver.decode_us_per_row", "us"},
	{"driver.query_us", "us"},
	{"driver.rows_us", "us"},
	{"wal.append_us", "us"},
	{"wal.fsync_us", "us"},
	{"wal.fsyncs_per_stmt", "count"},
	{"wal.bytes_per_stmt", "B"},
	{"wal.write_amp", "ratio"},
	{"wal.snapshot_ms", "ms"},
	{"wal.snapshots_per_run", "count"},
	{"wal.recover_stmts_s", "1/s"},
	{"core.commit_us", "us"},
	{"core.read_slowdown_under_write", "ratio"},
	{"repl.catchup_stmts_s", "1/s"},
	{"inproc.allocs_per_op", "count"},
	{"inproc.alloc_bytes_per_op", "B"},
	{"client.p95_ms", "ms"},
	{"client.p99_ms", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p95_ms", "ms"},
	{"proc.cpu_util", "ratio"},
	{"stmt.nonlinear-sum.p50_ms", "ms"},
	{"stmt.group-stddev.p50_ms", "ms"},
	{"stmt.conf.p50_ms", "ms"},
	{"stmt.rejection.p50_ms", "ms"},
}

// Shares of --seconds the traced run's phases take; all use one client.
const (
	plainShare  = 0.2 // untraced pass, the overhead baseline
	tracedShare = 0.3 // traced pass
	passWarm    = 500 * time.Millisecond
)

// engineStats reads SHOW STATS' engine scope over the wire.
func engineStats(ctx context.Context, addr string) (map[string]float64, error) {
	db, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	rows, err := db.QueryContext(ctx, "SHOW STATS")
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	out := map[string]float64{}
	for rows.Next() {
		var scope, name string
		var v float64
		if err := rows.Scan(&scope, &name, &v); err != nil {
			return nil, err
		}
		if scope == "engine" {
			out[name] = v
		}
	}
	return out, rows.Err()
}

// p50 of n timings of fn, in microseconds.
func p50Micros(n int, fn func() error) (float64, error) {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = float64(time.Since(t0)) / 1e3
	}
	sort.Float64s(d)
	return quantile(d, 0.5), nil
}

// latenciesMs returns the sorted latencies, in milliseconds, of the samples
// of statement stmt (-1 = any) that started after the pass's warm-up.
func latenciesMs(samples []sample, stmt int) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.start >= 0 && (stmt < 0 || int(s.stmt) == stmt) {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// tracePass is the traced run of one workload: one client against a real
// pipd with harness-side spans around the driver calls, the same operations
// replayed in process with a span around each layer's entry point, counts
// scraped from pipd's own /metrics and SHOW STATS before and after, and
// stand-alone timings of the layers the replay cannot isolate.
func (e *env) tracePass(ctx context.Context, w workload, seed uint64, seconds int) (*runResult, error) {
	res := &runResult{Workload: w.name, Trace: 1, Seed: seed, Seconds: seconds, Metrics: map[string]summary{}}
	m := map[string]float64{}
	cat := buildCatalog(w.preload)
	log, err := os.Create(filepath.Join(e.out, "pipd-"+w.name+"-trace.log"))
	if err != nil {
		return nil, err
	}
	defer log.Close()
	p, _, _, err := e.setupOnce(ctx, w.name+"-trace", &w, cat, log)
	if err != nil {
		return nil, err
	}
	defer p.kill()

	// Per-request floors of the server, before any load.
	m["server.http_floor_us"], err = p50Micros(200, func() error {
		if !p.healthy(ctx) {
			return fmt.Errorf("pipd stopped answering /healthz")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc := server.NewClient(p.addr)
	var sessions []*server.ClientSession
	m["server.session_create_us"], err = p50Micros(50, func() error {
		s, err := sc.Session(ctx, nil)
		sessions = append(sessions, s)
		return err
	})
	for _, s := range sessions {
		if s != nil {
			_ = s.Close(ctx) // the server is discarded after the run anyway
		}
	}
	if err != nil {
		return nil, err
	}

	dur := func(share float64) time.Duration {
		return time.Duration(share * float64(seconds) * float64(time.Second))
	}
	plain, _, err := drive(ctx, p.addr, &w, seed, 0, 1, time.Now().Add(passWarm), dur(plainShare), nil)
	if err != nil {
		return nil, err
	}

	e0, err := engineStats(ctx, p.addr)
	if err != nil {
		return nil, err
	}
	m0, err := p.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	cpu0, _ := cpuSeconds(p.pid())
	wall0 := time.Now()
	origin := wall0.Add(passWarm)
	tr := &tracer{origin: origin}
	traced, _, err := drive(ctx, p.addr, &w, seed, 0, 1, origin, dur(tracedShare), tr)
	if err != nil {
		return nil, err
	}
	wall := time.Since(wall0).Seconds()
	cpu1, _ := cpuSeconds(p.pid())
	m1, err := p.scrapeMetrics(ctx)
	if err != nil {
		return nil, err
	}
	e1, err := engineStats(ctx, p.addr)
	if err != nil {
		return nil, err
	}
	dirSize, err := dirBytes(filepath.Join(e.work, w.name+"-trace"))
	if err != nil {
		return nil, err
	}
	delta := func(a, b map[string]float64, k string) float64 { return b[k] - a[k] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	// Counts over the whole traced pass (its warm-up included: the
	// counters cannot tell the two apart), from pipd's own exports.
	all := float64(len(traced))
	samplesDrawn := delta(e0, e1, "samples")
	m["sampler.samples_per_op"] = samplesDrawn / all
	m["sampler.accept_rate"] = ratio(delta(e0, e1, "rejection_accepts"), delta(e0, e1, "rejection_attempts"))
	m["sampler.closed_form_hits_per_op"] = delta(e0, e1, "closed_form_hits") / all
	m["sampler.escalations_per_op"] = delta(e0, e1, "escalations") / all
	m["server.rows_per_op"] = delta(m0, m1, "pip_rows_streamed_total") / all
	m["server.handler_us"] = ratio(delta(m0, m1, "pip_query_seconds_total"), delta(m0, m1, "pip_queries_total")) * 1e6
	m["proc.cpu_util"] = (cpu1 - cpu0) / wall
	records := delta(m0, m1, "pip_wal_records_total")
	m["wal.fsyncs_per_stmt"] = ratio(delta(m0, m1, "pip_wal_fsyncs_total"), records)
	m["wal.bytes_per_stmt"] = ratio(delta(m0, m1, "pip_wal_bytes_total"), records)
	m["wal.fsync_us"] = ratio(delta(m0, m1, "pip_wal_fsync_seconds_sum"), delta(m0, m1, "pip_wal_fsync_seconds_count")) * 1e6
	m["wal.snapshots_per_run"] = delta(m0, m1, "pip_wal_snapshots_total")
	if records > 0 {
		// Everything the directory holds against everything that was sent:
		// statement text plus rendered arguments, load and both passes.
		m["wal.write_amp"] = float64(dirSize) / float64(statementBytes(cat)+
			(countWrites(&w, plain)+countWrites(&w, traced))*eventStatementBytes())
	}

	// Client-side figures of the traced pass proper.
	lat := latenciesMs(traced, -1)
	if len(lat) == 0 {
		return nil, fmt.Errorf("traced pass completed no operation in %s", dur(tracedShare))
	}
	m["trace.wire_p50_us"] = quantile(lat, 0.5) * 1e3
	m["client.p95_ms"] = quantile(lat, 0.95)
	m["client.p99_ms"] = quantile(lat, 0.99)
	// The client spans split a read at the moment the head chunk arrives.
	var measured []span
	for _, sp := range tr.spans {
		if traced[sp.Req].start >= 0 {
			measured = append(measured, sp)
		}
	}
	clientSelf := selfTimes(measured)
	m["driver.query_us"] = float64(clientSelf["driver.query"]) / float64(len(lat)) / 1e3
	m["driver.rows_us"] = float64(clientSelf["driver.rows"]) / float64(len(lat)) / 1e3
	wireMean, plainMean := mean(lat)*1e3, mean(latenciesMs(plain, -1))*1e3
	m["trace.wire_mean_us"] = wireMean
	m["trace.overhead_share"] = ratio(wireMean-plainMean, plainMean)
	if w.name == "sampled-agg" {
		for i, st := range w.stmts {
			m["stmt."+st.name+".p50_ms"] = quantile(latenciesMs(traced, i), 0.5)
		}
	}
	if w.preload > 0 {
		// Reads inside the write mix against the same reads alone.
		base, _, err := drive(ctx, p.addr, &workload{name: "read-alone", stmts: []statement{w.stmts[1]}, pattern: []int{0}},
			seed, 0, 1, time.Now().Add(passWarm), time.Second, nil)
		if err != nil {
			return nil, err
		}
		writes, reads := latenciesMs(traced, 0), latenciesMs(traced, 1)
		m["client.write_p50_ms"] = quantile(writes, 0.5)
		m["client.write_p95_ms"] = quantile(writes, 0.95)
		m["core.read_slowdown_under_write"] = ratio(quantile(reads, 0.5), quantile(latenciesMs(base, 0), 0.5))
	}

	ref, err := newReference(ctx, cat)
	if err != nil {
		return nil, err
	}
	if w.name == "sampled-agg" {
		if err := exprBench(ctx, m, ref.db); err != nil {
			return nil, err
		}
	}
	if err := e.replay(ctx, res, m, ref, &w, cat, traced, samplesDrawn); err != nil {
		return nil, err
	}
	if w.preload > 0 {
		if err := e.walBench(ctx, m, cat); err != nil {
			return nil, err
		}
		if err := e.replCatchup(ctx, m, p, log); err != nil {
			return nil, err
		}
	}

	if err := writeJSON(filepath.Join(e.out, "trace-"+w.name+".json"), tr.spans); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		if v := m[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s is %v: the pass was too short to measure it", d.name, v)
		}
		res.Metrics[d.name] = single(d.unit, m[d.name])
	}
	res.Attempted = len(plain) + len(traced)
	for _, pass := range [][]sample{plain, traced} {
		for i := range pass {
			if pass[i].failed {
				res.Failed++
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func countWrites(w *workload, samples []sample) int {
	n := 0
	for i := range samples {
		if w.stmts[samples[i].stmt].write {
			n++
		}
	}
	return n
}

// statementBytes is the size of the load as a client would write it down:
// each statement's text plus its arguments rendered.
func statementBytes(cat *catalog) int {
	n := 0
	for _, ls := range cat.statements() {
		n += len(ls.text) + len(fmt.Sprint(ls.args...))
	}
	return n
}

func eventStatementBytes() int { return len(eventInsert) + len(fmt.Sprint(eventArgs(1000)...)) }

// replay re-executes the traced pass's measured operations in process, in
// order, with a span around each layer, and turns the spans' self times
// into the additive per-layer metrics. The wire figure minus their sum is
// server.wire_us: HTTP, request decoding, session lookup, per-row flushes,
// the loopback socket and database/sql — named, not hidden.
func (e *env) replay(ctx context.Context, res *runResult, m map[string]float64, ref *reference, w *workload, cat *catalog, traced []sample, samplesDrawn float64) error {
	var durable *core.DB
	var walStore *wal.Store
	if w.preload > 0 {
		// Writes are replayed twice: on the in-memory twin, and on a twin
		// whose log is a wal.Store with fsync on; the difference is the
		// log's share of a write.
		db, st, err := openDurableTwin(ctx, filepath.Join(e.work, "replay-wal"), cat, m)
		if err != nil {
			return err
		}
		defer st.Close()
		durable = db
		walStore = st
	}

	rt := &tracer{origin: time.Now()}
	type replayed struct {
		req  int32
		o    op
		exec int32 // the sql.exec span, -1 for writes
	}
	var ops []replayed
	var rows, bytes int
	acc := &accuracy{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range traced {
		s := &traced[i]
		if s.start < 0 || s.failed {
			continue
		}
		req := int32(len(ops))
		st := &w.stmts[s.stmt]
		o := op{stmt: int(s.stmt), key: s.key}
		if st.write {
			root := rt.begin("inproc.op", -1, req)
			x := rt.begin("sql.exec", root, req)
			tMem, err := ref.write(ctx, ref.db, s.key)
			rt.end(x)
			if err != nil {
				return fmt.Errorf("replay insert %d: %w", s.key, err)
			}
			rt.end(root)
			tWal, err := ref.write(ctx, durable, s.key)
			if err != nil {
				return fmt.Errorf("replay durable insert %d: %w", s.key, err)
			}
			// The durable twin's extra time extends the request as the
			// log's span.
			end := rt.spans[root].End
			extra := max(0, int64(tWal-tMem))
			rt.derive("wal.commit", root, req, end, end+extra)
			rt.spans[root].End = end + extra
			ops = append(ops, replayed{req: req, o: o, exec: -1})
			continue
		}
		rr, err := ref.read(ctx, rt, req, st.text, s.key)
		if err != nil {
			return fmt.Errorf("replay %s(%d): %w", st.name, s.key, err)
		}
		if rr.hash != s.hash {
			res.Failed++
			if len(res.Problems) < 8 {
				res.problem("%s(%d): wire result hash %x, in-process replay %x", st.name, s.key, s.hash, rr.hash)
			}
		}
		rows += len(rr.rows)
		bytes += rr.bytes
		if err := acc.add(st, cat, s.key, rr.rows); err != nil {
			return err
		}
		ops = append(ops, replayed{req: req, o: o, exec: rr.exec})
	}
	runtime.ReadMemStats(&ms1)
	if walStore != nil {
		// A snapshot of the catalog as the replay left it: the load, the
		// preload and every replayed insert.
		t0 := time.Now()
		if err := walStore.Snapshot(); err != nil {
			return err
		}
		m["wal.snapshot_ms"] = float64(time.Since(t0)) / 1e6
	}
	n := float64(len(ops))
	if n == 0 {
		return fmt.Errorf("nothing to replay")
	}
	m["inproc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	m["inproc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	m["sampler.rms_rel_err"] = acc.rms()
	m["sampler.median_rel_err"] = acc.median()
	acc.check(res)

	// The drain cannot be split from outside; EXPLAIN ANALYZE of the same
	// operation says which share of it the sampling operators took, and
	// that share becomes a child span of the drain.
	var examined, out int64
	for _, r := range ops {
		if r.exec < 0 {
			continue
		}
		ps, err := ref.shape(ctx, w.stmts[r.o.stmt].text, r.o)
		if err != nil {
			return err
		}
		examined += ps.examined
		out += ps.out
		x := rt.spans[r.exec]
		rt.derive("sampler.busy", x.ID, r.req, x.Start, x.Start+int64(ps.samplerShare*float64(x.End-x.Start)))
	}
	if out > 0 {
		m["sql.rows_examined_per_row_out"] = float64(examined) / float64(out)
	}

	self := selfTimes(rt.spans)
	perOp := func(name string) float64 { return float64(self[name]) / n / 1e3 }
	m["sql.parse_us"] = perOp("sql.parse")
	m["sql.plan_us"] = perOp("sql.plan")
	m["sql.exec_us"] = perOp("sql.exec")
	m["sampler.busy_us"] = perOp("sampler.busy")
	m["server.encode_us"] = perOp("server.encode")
	m["driver.decode_us"] = perOp("driver.decode") + perOp("inproc.op") // the replay's own glue is client-side work
	m["wal.commit_us"] = perOp("wal.commit")
	inproc := m["sql.parse_us"] + m["sql.plan_us"] + m["sql.exec_us"] + m["sampler.busy_us"] +
		m["server.encode_us"] + m["driver.decode_us"] + m["wal.commit_us"]
	m["server.wire_us"] = m["trace.wire_mean_us"] - inproc
	m["trace.sampler_expr_share"] = m["sampler.busy_us"] / m["trace.wire_mean_us"]
	if rows > 0 {
		m["server.encode_us_per_row"] = float64(self["server.encode"]) / float64(rows) / 1e3
		m["driver.decode_us_per_row"] = float64(self["driver.decode"]) / float64(rows) / 1e3
		m["server.bytes_per_row"] = float64(bytes) / float64(rows)
	}
	if samplesDrawn > 0 {
		// pipd's sample count covers the pass's warm-up too; scale the
		// replayed sampler time to the same operations.
		m["sampler.ns_per_sample"] = float64(self["sampler.busy"]) / n / m["sampler.samples_per_op"]
	}
	return writeJSON(filepath.Join(e.out, "trace-"+w.name+"-inproc.json"), rt.spans)
}

// openDurableTwin loads the catalog through a wal.Store with fsync off,
// closes it, and reopens the directory with fsync on: the reopen replays
// every record, which times recovery, and leaves a twin whose commits pay
// for the log as pipd's do.
func openDurableTwin(ctx context.Context, dir string, cat *catalog, m map[string]float64) (*core.DB, *wal.Store, error) {
	loader := newEngine()
	st, _, err := wal.Open(dir, loader, wal.Options{})
	if err != nil {
		return nil, nil, err
	}
	if err := loadInProcess(ctx, loader, cat); err != nil {
		st.Close()
		return nil, nil, err
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	db := newEngine()
	st, info, err := wal.Open(dir, db, wal.Options{Fsync: true})
	if err != nil {
		return nil, nil, err
	}
	if info.Duration > 0 {
		m["wal.recover_stmts_s"] = float64(info.Replayed) / info.Duration.Seconds()
	}
	return db, st, nil
}

// noopLog acknowledges every mutation at once: what is left of Commit is
// the statement-commit choke point itself.
type noopLog struct{}

func (noopLog) AppendMutation(core.Mutation) error { return nil }

// walBench times the write path's pieces by calling them directly:
// Store.AppendMutation without fsync, and core.DB.Commit over a no-op log.
func (e *env) walBench(ctx context.Context, m map[string]float64, cat *catalog) error {
	args, err := bind(eventArgs(1000))
	if err != nil {
		return err
	}
	db := newEngine()
	st, _, err := wal.Open(filepath.Join(e.work, "append-wal"), db, wal.Options{})
	if err != nil {
		return err
	}
	mut := core.Mutation{Session: core.RootSessionID, Seed: engineSeed, Text: eventInsert, Args: args}
	m["wal.append_us"], err = p50Micros(5000, func() error { return st.AppendMutation(mut) })
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	mem := newEngine()
	mem.SetMutationLog(noopLog{})
	m["core.commit_us"], err = p50Micros(20000, func() error {
		return mem.Commit(eventInsert, args, func() error { return nil })
	})
	return err
}

// exprBench compiles and batch-evaluates the workload's own expressions:
// the symbolic cells the sampled statements aggregate, fetched from the
// catalog through SQL.
func exprBench(ctx context.Context, m map[string]float64, db *core.DB) error {
	var exprs []expr.Expr
	for _, q := range []string{
		"SELECT morders*morders + morders*price FROM customers",
		"SELECT manuf + ship FROM suppliers",
	} {
		tb, err := psql.ExecContext(ctx, db, q)
		if err != nil {
			return err
		}
		for _, t := range tb.Tuples {
			if x, ok := t.Values[0].AsExpr(); ok {
				exprs = append(exprs, x)
			}
		}
	}
	if len(exprs) == 0 {
		return fmt.Errorf("expr bench: the catalog returned no symbolic cell")
	}
	progs := make([]*expr.Program, len(exprs))
	t0 := time.Now()
	for i, x := range exprs {
		p, err := expr.Compile(x)
		if err != nil {
			return err
		}
		progs[i] = p
	}
	m["expr.compile_us"] = float64(time.Since(t0)) / float64(len(exprs)) / 1e3

	const batch = 1024
	rng := rand.New(rand.NewPCG(1, 1))
	cols := make([][]float64, 4)
	for i := range cols {
		cols[i] = make([]float64, batch)
		for j := range cols[i] {
			cols[i][j] = rng.Float64() * 10
		}
	}
	out := make([]float64, batch)
	var stack []float64
	var evals int
	t0 = time.Now()
	for rep := 0; rep < 8; rep++ {
		for _, p := range progs {
			if need := p.MaxStack() * batch; len(stack) < need {
				stack = make([]float64, need)
			}
			p.EvalBatch(cols[:p.NumSlots()], batch, out, stack)
			evals += batch
		}
	}
	m["expr.eval_ns_per_sample"] = float64(time.Since(t0)) / float64(evals)
	return nil
}

// replCatchup restarts the primary with a replication listener, starts a
// fresh follower and times how long it takes to apply the whole log.
func (e *env) replCatchup(ctx context.Context, m map[string]float64, p *pipd, log *os.File) error {
	replAddr, err := freeAddr()
	if err != nil {
		return err
	}
	p.kill()
	p.args = append(p.args, "-replicate-addr", replAddr)
	if err := p.start(ctx); err != nil {
		return err
	}
	pm, err := p.scrapeMetrics(ctx)
	if err != nil {
		return err
	}
	last := pm["pip_wal_last_seq"]
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	f := &pipd{bin: e.pipdBin, addr: addr, args: []string{"-follow", "pip://" + replAddr, "-seed", strconv.Itoa(engineSeed), "-quiet"}, log: log}
	t0 := time.Now()
	if err := f.start(ctx); err != nil {
		return err
	}
	defer f.kill()
	for deadline := t0.Add(60 * time.Second); ; {
		fm, err := f.scrapeMetrics(ctx)
		if err != nil {
			return err
		}
		if fm["pip_repl_applied_seq"] >= last {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower applied %v of %v records in 60s", fm["pip_repl_applied_seq"], last)
		}
		time.Sleep(healthPoll)
	}
	m["repl.catchup_stmts_s"] = last / time.Since(t0).Seconds()
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
