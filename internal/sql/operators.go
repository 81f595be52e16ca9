// Physical operators, shared half: every plan node lowers onto an operator
// (vecops.go) implementing the public Cursor interface, so the whole engine
// — eager execution, streaming Rows, EXPLAIN — runs one pull-based
// pipeline. This file holds what the operators have in common: the metadata
// and counters embedded in each (opBase), the executable plan with its eager
// drain, and the per-row and per-group sampling units that Project and
// Aggregate apply (finishProject, stageAggRow, and the aggregate fold,
// aggFold).

package sql

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/obs"
	"pip/internal/sampler"
)

// opStats holds per-operator execution counters for EXPLAIN ANALYZE.
type opStats struct {
	rows    int64
	batches int64         // column batches emitted (NextBatch calls that returned rows)
	elapsed time.Duration // cumulative: includes time spent in child operators
}

// operator is a physical plan node: a Cursor plus plan-rendering metadata.
type operator interface {
	Cursor
	base() *opBase
}

// opBase carries the metadata common to all operators.
type opBase struct {
	name   string
	detail string
	cols   []string
	kids   []operator
	stats  opStats
	timed  bool
	// samp, set only on operators that invoke the sampler (Project,
	// Aggregate), scopes their sampler work for EXPLAIN ANALYZE's samples=
	// / batches= / accept= annotations. It chains to the statement scope.
	samp *obs.SamplerStats
	// execute, set on a streamed statement's root by spanCursor,
	// accumulates the wall time the row facade spends pulling batches:
	// the trace's "execute" phase.
	execute *time.Duration
}

func (b *opBase) base() *opBase { return b }

// Columns implements Cursor.
func (b *opBase) Columns() []string { return b.cols }

// begin starts a timing window when ANALYZE instrumentation is on.
func (b *opBase) begin() time.Time {
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window, never feeds sampled state
		return time.Now()
	}
	return time.Time{}
}

// closeKids closes all child operators, keeping the first error.
func (b *opBase) closeKids() error {
	var first error
	for _, k := range b.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// physPlan is a lowered, executable plan.
type physPlan struct {
	root vecOperator
	name string // result table name
	qs   *obs.QueryStats
}

// drain runs the plan to completion, materializing the result c-table —
// the eager execution path shares the streaming operator pipeline. Rows are
// gathered straight out of the root's batches (one backing allocation per
// batch). The whole pull loop is the trace's "execute" phase.
func (p *physPlan) drain() (*ctable.Table, error) {
	defer p.qs.StartPhase("execute")()
	names := p.root.Columns()
	sch := make(ctable.Schema, len(names))
	for i, n := range names {
		sch[i] = ctable.Column{Name: n}
	}
	out := &ctable.Table{Name: p.name, Schema: sch}
	defer p.root.Close()
	for {
		b, err := p.root.NextBatch(vecBatchSize)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		gatherBatch(b, &out.Tuples)
	}
}

// opScope gives a sampling operator (Project, Aggregate) its own telemetry
// scope chained to the statement trace, and returns a copy of env whose
// sampler records into it — so EXPLAIN ANALYZE can attribute sampler work
// to the operator that caused it while the statement and engine counters
// keep aggregating through the parent chain.
func opScope(env execEnv, b *opBase) execEnv {
	var parent *obs.SamplerStats
	if env.qs != nil {
		parent = env.qs.Sampler
	}
	b.samp = &obs.SamplerStats{Parent: parent}
	env.smp = env.smp.WithStats(b.samp)
	return env
}

// finishProject computes the projection targets for one row into vals (one
// slot per target, owned by the caller) and applies the per-row
// probability functions: expectation() and variance()/stddev() evaluate
// their cell under the request-scoped sampler, and conf() is
// probability-removing — it fills in the row's probability and strips the
// condition. The returned tuple's Values is vals, so a deterministic row
// costs no allocation here.
func finishProject(env execEnv, q *lProject, t *ctable.Tuple, vals []ctable.Value) (ctable.Tuple, error) {
	for j, tgt := range q.targets {
		v, err := tgt.Resolve(t)
		if err != nil {
			return ctable.Tuple{}, err
		}
		vals[j] = v
	}
	out := ctable.Tuple{Values: vals, Cond: t.Cond}

	for _, pos := range q.expCols {
		if !out.Values[pos].IsSymbolic() {
			continue
		}
		res, err := core.TupleExpectation(env.smp, &out, pos, false)
		if err != nil {
			return ctable.Tuple{}, err
		}
		out.Values[pos] = ctable.Float(res.Mean)
	}
	for _, vc := range q.varCols {
		pos, kind := vc.pos, vc.kind
		e, ok := out.Values[pos].AsExpr()
		if !ok {
			return ctable.Tuple{}, fmt.Errorf("sql: non-numeric %s() target %s", kind, out.Values[pos])
		}
		var clause cond.Clause
		switch len(out.Cond.Clauses) {
		case 0:
			out.Values[pos] = ctable.Float(0)
			continue
		case 1:
			clause = out.Cond.Clauses[0]
		default:
			return ctable.Tuple{}, fmt.Errorf("sql: %s() over disjunctive conditions is not supported", kind)
		}
		v := env.smp.Variance(e, clause)
		if v.Err != nil {
			return ctable.Tuple{}, v.Err
		}
		if kind == "stddev" {
			out.Values[pos] = ctable.Float(v.StdDev)
		} else {
			out.Values[pos] = ctable.Float(v.Variance)
		}
	}
	if len(q.confCols) > 0 {
		res := env.smp.AConf(out.Cond)
		if res.Err != nil {
			return ctable.Tuple{}, res.Err
		}
		for _, pos := range q.confCols {
			out.Values[pos] = ctable.Float(res.Prob)
		}
		out.Cond = cond.TrueCondition()
	}
	return out, nil
}

// stageAggRow resolves the [group keys..., agg args...] staging targets for
// one input row. The returned tuple is freshly allocated.
func stageAggRow(a *lAggregate, t *ctable.Tuple) (ctable.Tuple, error) {
	vals := make([]ctable.Value, len(a.staged))
	for j, tgt := range a.staged {
		v, err := tgt.Resolve(t)
		if err != nil {
			return ctable.Tuple{}, err
		}
		vals[j] = v
	}
	return ctable.Tuple{Values: vals, Cond: t.Cond}, nil
}

// aggFold is an Aggregate's input folded as it arrives (the
// probability-removing operators of paper §V-A). By linearity of
// expectation expected_sum, expected_count and expected_avg are sums of
// per-row terms P[φ]·E[h | φ], so a row whose term is exact — a TRUE
// condition, and an argument that is a number or has a closed-form mean —
// is added to its group's sampler.RowSum at once, with no staged row and no
// equation built. A row that must sample is staged and takes a slot in row
// order; finish evaluates it once the group's row count, which sets its
// precision target, is known. The non-decomposable aggregates
// (expected_max, expected_stddev/variance, conf/aconf) need the whole group,
// so when the statement has one, every row is staged.
type aggFold struct {
	a   *lAggregate
	smp *sampler.Sampler
	// closedForm: closed forms are on, so a row with a TRUE condition may
	// fold; off, every row samples.
	closedForm bool
	stageAll   bool
	schema     ctable.Schema // of a staged row: [group keys..., agg args...]
	grouper    *ctable.Grouper
	key        []ctable.Value
	groups     []aggGroup
	// keyErr is the first symbolic group key. The statement fails with it
	// unless some row, earlier or later, fails to resolve a target: that
	// failure comes first.
	keyErr error
	res    ctable.Resolved
	ms     sampler.MeanScratch
}

// aggGroup is one group: its key cells, its staged rows, and each
// aggregate's sums.
type aggGroup struct {
	key  []ctable.Value
	tb   ctable.Table
	sums []aggSums
}

// aggSums are one aggregate's sums over a group: sum for expected_sum and
// expected_avg, cnt for expected_count and for the rows expected_avg counts
// (those whose argument is not NULL).
type aggSums struct{ sum, cnt sampler.RowSum }

func newAggFold(env execEnv, a *lAggregate) *aggFold {
	f := &aggFold{a: a, smp: env.smp, closedForm: !env.smp.Config().DisableClosedForm}
	f.schema = make(ctable.Schema, len(a.stagedNames))
	for i, n := range a.stagedNames {
		f.schema[i] = ctable.Column{Name: n}
	}
	for _, at := range a.aggs {
		switch at.kind {
		case "expected_sum", "expected_count", "expected_avg":
		default:
			f.stageAll = true
		}
	}
	if a.nKeys > 0 {
		f.grouper = ctable.NewGrouper(a.stagedNames[:a.nKeys])
		f.key = make([]ctable.Value, a.nKeys)
	} else {
		f.groups = []aggGroup{f.newGroup(nil)}
	}
	return f
}

func (f *aggFold) newGroup(key []ctable.Value) aggGroup {
	return aggGroup{key: key, tb: ctable.Table{Name: "agg_input", Schema: f.schema}, sums: make([]aggSums, len(f.a.aggs))}
}

// add folds one input row into its group. Its error is a target the row
// fails to resolve; every other failure is chosen by finish.
func (f *aggFold) add(t *ctable.Tuple) error {
	a := f.a
	gi := 0
	if f.grouper != nil && f.keyErr == nil {
		for i, sc := range a.staged[:a.nKeys] {
			v, err := sc.Resolve(t)
			if err != nil {
				return err
			}
			f.key[i] = v
		}
		j, opened, err := f.grouper.Group(f.key)
		switch {
		case err != nil:
			f.keyErr = err
		case opened:
			f.groups = append(f.groups, f.newGroup(slices.Clone(f.key)))
		}
		gi = j
	}
	if f.keyErr != nil {
		_, err := stageAggRow(a, t)
		return err
	}
	g := &f.groups[gi]
	si := -1 // the row's index in g.tb once staged
	if f.stageAll {
		if err := f.stage(g, t, &si); err != nil {
			return err
		}
	}
	foldable := f.closedForm && t.Cond.IsTrue()
	for ai := range a.aggs {
		at, s := &a.aggs[ai], &g.sums[ai]
		switch at.kind {
		case "expected_sum", "expected_avg":
			term, null, exact, err := f.term(a.staged[at.argCol], t, foldable)
			if err != nil {
				return err
			}
			if exact {
				s.sum.Add(term)
			} else if err := f.deferTo(&s.sum, g, t, &si); err != nil {
				return err
			}
			if at.kind == "expected_sum" || null {
				continue
			}
		case "expected_count":
		default:
			continue
		}
		// The row counts: for expected_count, and for expected_avg unless
		// its argument is NULL.
		if foldable {
			s.cnt.Add(1)
		} else if err := f.deferTo(&s.cnt, g, t, &si); err != nil {
			return err
		}
	}
	return nil
}

// term resolves the row's aggregate argument sc and reports whether it is
// NULL, whose term is 0. When the row is foldable and the argument resolves
// into the arena, it also returns the term if that is exact: the number
// itself, or the closed-form mean. An argument the arena declines (a
// ScalarFunc, a symbolic cell that is not a single variable, a string) is
// never exact here: the row is deferred to rowContribution, which gives the
// same bits and counts the same closed-form hit. NaN terms count 0, as
// rowContribution counts them.
func (f *aggFold) term(sc ctable.Scalar, t *ctable.Tuple, foldable bool) (term float64, null, exact bool, err error) {
	root, arena := f.res.Resolve(sc, t)
	if !arena {
		v, err := sc.Resolve(t)
		if err != nil {
			return 0, false, false, err
		}
		return 0, v.IsNull(), v.IsNull(), nil
	}
	if f.res.IsNull(root) {
		return 0, true, true, nil
	}
	if !foldable {
		return 0, false, false, nil
	}
	if f.res.Degree(root) == 0 {
		term, exact = f.res.Value(root), true
	} else {
		term, exact = sampler.ClosedFormMean(f.smp, &f.res, root, &f.ms)
	}
	if math.IsNaN(term) {
		term = 0
	}
	return term, false, exact, nil
}

// deferTo stages the row (once) and defers its term in s.
func (f *aggFold) deferTo(s *sampler.RowSum, g *aggGroup, t *ctable.Tuple, si *int) error {
	if err := f.stage(g, t, si); err != nil {
		return err
	}
	s.Defer(*si)
	return nil
}

// stage appends the row to its group's table unless it is there already.
func (f *aggFold) stage(g *aggGroup, t *ctable.Tuple, si *int) error {
	if *si >= 0 {
		return nil
	}
	row, err := stageAggRow(f.a, t)
	if err != nil {
		return err
	}
	g.tb.Tuples = append(g.tb.Tuples, row)
	*si = len(g.tb.Tuples) - 1
	return nil
}

// finish evaluates every group's aggregates under the request-scoped
// sampler, group by group in first-occurrence order and aggregate by
// aggregate — the order in which the first failure is chosen — into the
// result table.
func (f *aggFold) finish(env execEnv) (*ctable.Table, error) {
	if f.keyErr != nil {
		return nil, f.keyErr
	}
	a := f.a
	outSch := make(ctable.Schema, len(a.outCols))
	for i, oc := range a.outCols {
		outSch[i] = ctable.Column{Name: oc.name}
	}
	out := &ctable.Table{Name: "result", Schema: outSch}
	aggVals := make([]ctable.Value, len(a.aggs))
	for gi := range f.groups {
		if err := env.ctxErr(); err != nil {
			return nil, err
		}
		g := &f.groups[gi]
		for ai, at := range a.aggs {
			v, err := f.value(g, ai, at)
			if err != nil {
				return nil, err
			}
			aggVals[ai] = ctable.Float(v)
		}
		vals := make([]ctable.Value, len(a.outCols))
		for i, oc := range a.outCols {
			if oc.isKey {
				vals[i] = g.key[oc.keyIdx]
			} else {
				vals[i] = aggVals[oc.aggIdx]
			}
		}
		out.Tuples = append(out.Tuples, ctable.NewTuple(vals...))
	}
	return out, nil
}

// value evaluates aggregate ai over group g.
func (f *aggFold) value(g *aggGroup, ai int, at aggTarget) (float64, error) {
	smp, s, sub := f.smp, &g.sums[ai], &g.tb
	var res sampler.AggregateResult
	var err error
	switch at.kind {
	case "expected_sum":
		res, err = smp.FinishSum(&s.sum, sub, at.argCol)
	case "expected_count":
		res, err = smp.FinishCount(&s.cnt, sub)
	case "expected_avg":
		res, err = smp.FinishAvg(&s.sum, &s.cnt, sub, at.argCol)
	case "expected_max":
		res, err = smp.ExpectedMax(sub, at.argCol, 0)
	case "expected_stddev", "expected_variance":
		// The statement's own sampler, not the handle's live settings: a
		// SET after planning must not reach a statement already running.
		res, err = smp.ExpectedSpread(sub, at.argCol, at.kind == "expected_variance")
	case "conf", "aconf":
		// Joint probability that at least one row of the group exists
		// (aconf over the disjunction of row conditions).
		d := cond.FalseCondition()
		for i := range sub.Tuples {
			d = d.Or(sub.Tuples[i].Cond)
		}
		r := smp.AConf(d)
		return r.Prob, r.Err
	default:
		return 0, fmt.Errorf("sql: unhandled aggregate %s", at.kind)
	}
	return res.Value, err
}
