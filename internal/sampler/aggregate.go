package sampler

import (
	"fmt"
	"math"
	"sort"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/expr"
)

// AggregateResult reports a per-table aggregate.
type AggregateResult struct {
	Value float64
	// N is the total number of samples spent across all rows.
	N int
	// Exact reports whether every per-row computation was closed-form.
	Exact bool
	// RowsScanned counts rows actually processed (the early-terminating
	// expected_max may stop before the end of the table).
	RowsScanned int
}

// rowAggBatch is one batch of rows of a row-parallel aggregate, merged in
// batch order so the floating-point sum over rows is identical for every
// worker count.
type rowAggBatch struct {
	total   float64
	samples int
	exact   bool
	err     error
}

// forEachRowBatch evaluates per(row) over every row of the table with rows
// sharded into batches across the worker pool, then merges batch partial
// sums in batch order. Each row's value is already independent of the
// worker count (the per-sample engine's determinism contract), so batching
// only has to fix the summation order. Single-row tables skip the pool: the
// parallelism then lives entirely in the per-sample engine.
func (s *Sampler) forEachRowBatch(rows int, per func(sub *Sampler, row int) (float64, int, bool, error)) (AggregateResult, error) {
	if rows <= 1 {
		res := AggregateResult{Exact: true, RowsScanned: rows}
		if rows == 1 {
			v, n, exact, err := per(s, 0)
			if err != nil {
				return AggregateResult{}, err
			}
			res.Value, res.N, res.Exact = v, n, exact
		}
		return res, nil
	}
	// Row batch boundaries are fixed (never derived from the worker count —
	// that would change the partial-sum grouping and break bit-identity).
	// When there are fewer batches than workers, the leftover parallelism
	// moves into the per-row sampler instead: per-row values are
	// worker-count-independent by contract, so this only changes where the
	// work runs. Otherwise per-row sampling pins to one worker to avoid
	// oversubscribing with nested pools.
	batches := (rows + rowBatchSize - 1) / rowBatchSize
	workers := s.cfg.effectiveWorkers()
	innerWorkers := 1
	if batches < workers {
		innerWorkers = (workers + batches - 1) / batches
	}
	inner := s.withWorkers(innerWorkers)
	results, err := fanOut(&s.cfg, workers, 0, rows, rowBatchSize, func(_, lo, hi int, r *rowAggBatch) {
		r.exact = true
		for i := lo; i < hi; i++ {
			v, n, exact, err := per(inner, i)
			if err != nil {
				r.err = err
				return
			}
			r.total += v
			r.samples += n
			r.exact = r.exact && exact
		}
	})
	if err != nil {
		return AggregateResult{}, err
	}
	out := AggregateResult{Exact: true, RowsScanned: rows}
	for b := range results {
		if results[b].err != nil {
			return AggregateResult{}, results[b].err
		}
		out.Value += results[b].total
		out.N += results[b].samples
		out.Exact = out.Exact && results[b].exact
	}
	return out, nil
}

// ExpectedSum computes E[sum(col)] over a c-table under per-table sampling
// semantics (paper §IV-C): by linearity of expectation the result is the
// sum over rows of P[phi_r] * E[h_r | phi_r], which holds under arbitrary
// inter-row correlation. Rows are independent computations, so they shard
// across the worker pool with partial sums merged in row order.
//
// Following the paper's variance observation (the sum of N estimates with
// equal per-element standard deviation has standard deviation sigma/sqrt N),
// the per-row relative precision target is relaxed by sqrt(len(rows)) when
// adaptive sampling is active.
func (s *Sampler) ExpectedSum(tb *ctable.Table, col int) (AggregateResult, error) {
	if err := checkCol(tb, col); err != nil {
		return AggregateResult{}, err
	}
	rowSampler := s.forRowCount(tb.Len())
	return rowSampler.forEachRowBatch(tb.Len(), func(sub *Sampler, i int) (float64, int, bool, error) {
		contrib, r, err := sub.rowContribution(&tb.Tuples[i], col)
		return contrib, r.N, r.Exact, err
	})
}

// ExpectedCount computes E[count(*)] = sum of row confidences, with rows
// sharded across the worker pool.
func (s *Sampler) ExpectedCount(tb *ctable.Table) (AggregateResult, error) {
	return s.forEachRowBatch(tb.Len(), func(sub *Sampler, i int) (float64, int, bool, error) {
		r := sub.AConf(tb.Tuples[i].Cond)
		return r.Prob, r.N, r.Exact, r.Err
	})
}

// ExpectedAvg approximates E[avg(col)] by the ratio E[sum]/E[count]. The
// ratio-of-expectations is the standard first-order estimator for the
// expectation of a ratio; it is exact when the row count is deterministic.
func (s *Sampler) ExpectedAvg(tb *ctable.Table, col int) (AggregateResult, error) {
	sum, err := s.ExpectedSum(tb, col)
	if err != nil {
		return AggregateResult{}, err
	}
	cnt, err := s.ExpectedCount(tb)
	if err != nil {
		return AggregateResult{}, err
	}
	if cnt.Value == 0 {
		return AggregateResult{Value: math.NaN(), N: sum.N + cnt.N}, nil
	}
	return AggregateResult{
		Value:       sum.Value / cnt.Value,
		N:           sum.N + cnt.N,
		Exact:       sum.Exact && cnt.Exact,
		RowsScanned: tb.Len(),
	}, nil
}

// ExpectedMax computes E[max(col)] with the early-terminating algorithm of
// Example 4.4 when every target value is deterministic: rows are sorted by
// value descending, row i is the maximum exactly when it is present and
// rows 0..i-1 are absent (assuming independent row conditions — the
// algorithm verifies pairwise variable disjointness and falls back to
// per-world sampling otherwise), and scanning stops once the largest
// possible remaining change drops below precision. Worlds where no row is
// present contribute 0, matching the paper's example.
func (s *Sampler) ExpectedMax(tb *ctable.Table, col int, precision float64) (AggregateResult, error) {
	if err := checkCol(tb, col); err != nil {
		return AggregateResult{}, err
	}
	if tb.Len() == 0 {
		return AggregateResult{Value: 0, Exact: true}, nil
	}
	allDet := true
	for i := range tb.Tuples {
		if tb.Tuples[i].Values[col].IsSymbolic() {
			allDet = false
			break
		}
	}
	if !allDet || !rowsIndependent(tb) {
		return s.expectedMaxByWorlds(tb, col)
	}

	type row struct {
		v float64
		i int
	}
	rows := make([]row, 0, tb.Len())
	for i := range tb.Tuples {
		f, ok := tb.Tuples[i].Values[col].AsFloat()
		if !ok {
			return AggregateResult{}, fmt.Errorf("sampler: non-numeric max target %s", tb.Tuples[i].Values[col])
		}
		rows = append(rows, row{v: f, i: i})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].v > rows[b].v })

	total := 0.0
	pNone := 1.0 // probability that no earlier (larger) row is present
	samples := 0
	exact := true
	scanned := 0
	for _, rw := range rows {
		scanned++
		// Early termination: the most any remaining row can add is
		// bounded by |value| * P[none of the larger rows present].
		if precision > 0 && math.Abs(rw.v)*pNone < precision {
			break
		}
		cr := s.AConf(tb.Tuples[rw.i].Cond)
		if cr.Err != nil {
			return AggregateResult{}, cr.Err
		}
		samples += cr.N
		exact = exact && cr.Exact
		total += rw.v * cr.Prob * pNone
		pNone *= 1 - cr.Prob
		if pNone <= 0 {
			break
		}
	}
	return AggregateResult{Value: total, N: samples, Exact: exact, RowsScanned: scanned}, nil
}

// ExpectedMaxNaive is the worst-case per-world implementation the paper
// describes for aggregates without linearity (kept for ablation benches).
func (s *Sampler) ExpectedMaxNaive(tb *ctable.Table, col int) (AggregateResult, error) {
	if err := checkCol(tb, col); err != nil {
		return AggregateResult{}, err
	}
	return s.expectedMaxByWorlds(tb, col)
}

func (s *Sampler) expectedMaxByWorlds(tb *ctable.Table, col int) (AggregateResult, error) {
	samples, err := s.AggregateHistogram(tb, col, maxFold, s.histogramSize())
	if err != nil {
		return AggregateResult{}, err
	}
	total := 0.0
	for _, v := range samples {
		total += v
	}
	n := len(samples)
	if n == 0 {
		return AggregateResult{Value: math.NaN()}, nil
	}
	return AggregateResult{Value: total / float64(n), N: n, RowsScanned: tb.Len()}, nil
}

// rowsIndependent reports whether no two rows of the table share a random
// variable (in conditions or target cells) — the premise of the sorted
// expected-max algorithm.
func rowsIndependent(tb *ctable.Table) bool {
	seen := map[expr.VarKey]bool{}
	for i := range tb.Tuples {
		local := map[expr.VarKey]*expr.Variable{}
		tb.Tuples[i].Cond.CollectVars(local)
		for _, v := range tb.Tuples[i].Values {
			v.CollectVars(local)
		}
		for k := range local {
			if seen[k] {
				return false
			}
		}
		for k := range local {
			seen[k] = true
		}
	}
	return true
}

// histogramSize returns the world-sample count used by per-world fallbacks.
func (s *Sampler) histogramSize() int {
	if s.cfg.FixedSamples > 0 {
		return s.cfg.FixedSamples
	}
	n := s.cfg.MaxSamples
	if n <= 0 {
		n = 1000
	}
	if n > 10000 {
		n = 10000
	}
	return n
}

// FoldFunc combines per-row values into a per-world aggregate. present
// lists the evaluated target values of rows whose condition holds in the
// world.
type FoldFunc func(present []float64) float64

// SumFold is the per-world sum.
func SumFold(present []float64) float64 {
	t := 0.0
	for _, v := range present {
		t += v
	}
	return t
}

// maxFold is the per-world max (0 when no row is present).
func maxFold(present []float64) float64 {
	if len(present) == 0 {
		return 0
	}
	m := present[0]
	for _, v := range present[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDevFold is the per-world population standard deviation across present
// rows (0 for fewer than two rows) — the fold behind the expected_stddev
// aggregate (paper §IV-C lists stddev among the aggregate operators).
func StdDevFold(present []float64) float64 {
	return math.Sqrt(VarianceFold(present))
}

// VarianceFold is the per-world population variance across present rows.
func VarianceFold(present []float64) float64 {
	n := len(present)
	if n < 2 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range present {
		sum += v
		sumSq += v * v
	}
	fn := float64(n)
	mean := sum / fn
	variance := sumSq/fn - mean*mean
	if variance < 0 {
		variance = 0
	}
	return variance
}

// histRow is one table row compiled for world sampling: its presence
// condition and its target cell against the table frame's numbering.
type histRow struct {
	present *cond.ConditionProgram
	// cell is the symbolic target's program; nil for a deterministic target,
	// whose value is val — or, when bad is set, not a number at all.
	cell *expr.Program
	val  float64
	bad  bool
}

// AggregateHistogram implements the expected_*_hist operators (§V-C): it
// draws n complete worlds over every variable of the table and returns the
// per-world aggregate values, suitable for histogram construction. Unlike
// the per-row expectation path this is an unconditioned world sample: row
// conditions act as presence indicators, and inter-row variable sharing is
// honored exactly. Each world is a pure function of its index, so world
// indices shard across the worker pool, every batch writing its own
// disjoint slice of the output — no merge step is needed at all. The
// table's variables are numbered once and every row condition and symbolic
// cell compiled against that numbering; each worker owns one scratch world.
func (s *Sampler) AggregateHistogram(tb *ctable.Table, col int, fold FoldFunc, n int) ([]float64, error) {
	if err := checkCol(tb, col); err != nil {
		return nil, err
	}
	if n <= 0 {
		return []float64{}, nil
	}
	fr := newWorldFrame(ctable.VarsOf(tb), s.cfg.WorldSeed)
	rows := make([]histRow, len(tb.Tuples))
	nstack := 0
	for r := range tb.Tuples {
		t := &tb.Tuples[r]
		present, err := cond.CompileCondition(t.Cond, fr.table)
		if err != nil {
			return nil, err
		}
		rows[r].present = present
		nstack = max(nstack, present.MaxStack())
		if v := t.Values[col]; v.IsSymbolic() {
			cell, err := expr.CompileSlots(v.E, fr.table)
			if err != nil {
				return nil, err
			}
			rows[r].cell = cell
			nstack = max(nstack, cell.MaxStack())
		} else if f, ok := v.AsFloat(); ok {
			rows[r].val = f
		} else {
			rows[r].bad = true
		}
	}
	out := make([]float64, n)
	workers := s.cfg.effectiveWorkers()
	// Worker w's world and its list of present values, built on first use.
	type histScratch struct {
		*scratch
		present []float64
	}
	scratches := make([]histScratch, max(1, workers))
	errs, err := fanOut(&s.cfg, workers, 0, n, sampleBatchSize, func(w, lo, hi int, berr *error) {
		sc := &scratches[w]
		if sc.scratch == nil {
			sc.scratch = newScratch(fr.size(), nstack)
		}
		for i := lo; i < hi; i++ {
			fr.drawWorld(sc.vals, &sc.rng, uint64(i))
			sc.present = sc.present[:0]
			for r := range rows {
				row := &rows[r]
				if !row.present.Holds(sc.vals, sc.stack) {
					continue
				}
				switch {
				case row.cell != nil:
					sc.present = append(sc.present, row.cell.EvalSlots(sc.vals, sc.stack))
				case row.bad:
					*berr = fmt.Errorf("sampler: non-numeric histogram target %s", tb.Tuples[r].Values[col])
					return
				default:
					sc.present = append(sc.present, row.val)
				}
			}
			out[i] = fold(sc.present)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// One round; every drawn world is kept (no rejection).
	s.cfg.Stats.AddRound(int64(len(errs)), int64(n), 0, 0)
	return out, nil
}

// rowContribution computes P[cond] * E[value | cond] for one tuple.
func (s *Sampler) rowContribution(t *ctable.Tuple, col int) (float64, Result, error) {
	v := t.Values[col]
	if v.IsNull() {
		return 0, Result{Exact: true, Prob: 0}, nil
	}
	e, ok := v.AsExpr()
	if !ok {
		return 0, Result{}, fmt.Errorf("sampler: non-numeric aggregate target %s", v)
	}
	var r Result
	if len(t.Cond.Clauses) == 1 {
		r = s.Expectation(e, t.Cond.Clauses[0], true)
	} else {
		r = s.ExpectationDNF(e, t.Cond, true)
	}
	if r.Err != nil {
		return 0, r, r.Err
	}
	if r.Prob == 0 {
		return 0, r, nil
	}
	if math.IsNaN(r.Mean) {
		return 0, r, nil
	}
	return r.Mean * r.Prob, r, nil
}

// forRowCount relaxes the per-row precision target by sqrt(rows) for
// adaptive aggregation over many rows (paper §IV-C variance argument).
func (s *Sampler) forRowCount(rows int) *Sampler {
	if rows <= 1 || s.cfg.FixedSamples > 0 {
		return s
	}
	cfg := s.cfg
	cfg.Delta = cfg.Delta * math.Sqrt(float64(rows))
	if cfg.Delta > 0.5 {
		cfg.Delta = 0.5
	}
	return &Sampler{cfg: cfg}
}

// withWorkers returns a sampler identical to s but evaluating with the
// given worker count. Row-parallel aggregates pin per-row work to one
// worker; by the determinism contract this never changes a result, only
// where the parallelism lives.
func (s *Sampler) withWorkers(n int) *Sampler {
	if s.cfg.Workers == n {
		return s
	}
	cfg := s.cfg
	cfg.Workers = n
	return &Sampler{cfg: cfg}
}

func checkCol(tb *ctable.Table, col int) error {
	if col < 0 || col >= len(tb.Schema) {
		return fmt.Errorf("sampler: column %d out of range for %s", col, tb.Name)
	}
	return nil
}

// ExpectationHistogram draws n conditional samples of an expression given a
// clause (the per-row expected_*_hist variant): the returned values are
// samples of e restricted to worlds satisfying c. Sampling runs through the
// batch-parallel engine; a rejection-cap failure truncates the result at
// the failing sample, identically for every worker count.
func (s *Sampler) ExpectationHistogram(e expr.Expr, c cond.Clause, n int) ([]float64, error) {
	eKeys, eVars := expr.Vars(e)
	extras := make([]*expr.Variable, 0, len(eKeys))
	for _, k := range eKeys {
		extras = append(extras, eVars[k])
	}
	groups := s.partition(c, extras)
	samplers := make([]*groupSampler, 0, len(groups))
	for _, g := range groups {
		gs, err := newGroupSampler(g, &s.cfg)
		if err != nil {
			return nil, err
		}
		if gs.inconsistent {
			return nil, nil
		}
		samplers = append(samplers, gs)
	}
	engine, err := newGroupEngine(&s.cfg, samplers, e, true)
	if err != nil {
		return nil, err
	}
	if err := engine.runRound(0, n); err != nil {
		return nil, err
	}
	if engine.values == nil {
		return []float64{}, nil
	}
	return engine.values, nil
}
