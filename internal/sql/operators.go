// Physical operators, shared half: every plan node lowers onto an operator
// (vecops.go) implementing the public Cursor interface, so the whole engine
// — eager execution, streaming Rows, EXPLAIN — runs one pull-based
// pipeline. This file holds what the operators have in common: the metadata
// and counters embedded in each (opBase), the executable plan with its eager
// drain, and the per-row and per-group sampling units that Project and
// Aggregate apply (finishProject, stageAggRow, computeAgg).

package sql

import (
	"fmt"
	"io"
	"time"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/obs"
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

// mergeSorted merges two ascending index lists (either may be empty).
func mergeSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// finishProject computes the projection targets for one row and applies the
// per-row probability functions: expectation() and variance()/stddev()
// evaluate their cell under the request-scoped sampler, and conf() is
// probability-removing — it fills in the row's probability and strips the
// condition. The returned tuple is freshly allocated.
func finishProject(env execEnv, q *lProject, t *ctable.Tuple) (*ctable.Tuple, error) {
	vals := make([]ctable.Value, len(q.targets))
	for j, tgt := range q.targets {
		v, err := tgt.Resolve(t)
		if err != nil {
			return nil, err
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
			return nil, err
		}
		out.Values[pos] = ctable.Float(res.Mean)
	}
	for _, vc := range q.varCols {
		pos, kind := vc.pos, vc.kind
		e, ok := out.Values[pos].AsExpr()
		if !ok {
			return nil, fmt.Errorf("sql: non-numeric %s() target %s", kind, out.Values[pos])
		}
		var clause cond.Clause
		switch len(out.Cond.Clauses) {
		case 0:
			out.Values[pos] = ctable.Float(0)
			continue
		case 1:
			clause = out.Cond.Clauses[0]
		default:
			return nil, fmt.Errorf("sql: %s() over disjunctive conditions is not supported", kind)
		}
		v := env.smp.Variance(e, clause)
		if v.Err != nil {
			return nil, v.Err
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
			return nil, res.Err
		}
		for _, pos := range q.confCols {
			out.Values[pos] = ctable.Float(res.Prob)
		}
		out.Cond = cond.TrueCondition()
	}
	return &out, nil
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

// computeAgg partitions a staged input table by its key columns and
// evaluates the expectation aggregates (the probability-removing operators
// of paper §V-A) per group under the request-scoped sampler.
func computeAgg(env execEnv, a *lAggregate, staged *ctable.Table) (*ctable.Table, error) {
	// Group.
	var groups []ctable.GroupRows
	if a.nKeys == 0 {
		all := make([]int, staged.Len())
		for i := range all {
			all[i] = i
		}
		groups = []ctable.GroupRows{{Rows: all}}
	} else {
		keyCols := make([]int, a.nKeys)
		for i := range keyCols {
			keyCols[i] = i
		}
		var err error
		groups, err = ctable.GroupBy(staged, keyCols)
		if err != nil {
			return nil, err
		}
	}

	outSch := make(ctable.Schema, len(a.outCols))
	for i, oc := range a.outCols {
		outSch[i] = ctable.Column{Name: oc.name}
	}
	out := &ctable.Table{Name: "result", Schema: outSch}

	smp := env.smp
	for _, g := range groups {
		if err := env.ctxErr(); err != nil {
			return nil, err
		}
		sub := &ctable.Table{Name: staged.Name, Schema: staged.Schema}
		for _, ri := range g.Rows {
			sub.Tuples = append(sub.Tuples, staged.Tuples[ri])
		}
		aggVals := make([]ctable.Value, len(a.aggs))
		for ai, at := range a.aggs {
			switch at.kind {
			case "expected_sum":
				res, err := smp.ExpectedSum(sub, at.argCol)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_count":
				res, err := smp.ExpectedCount(sub)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_avg":
				res, err := smp.ExpectedAvg(sub, at.argCol)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_max":
				res, err := smp.ExpectedMax(sub, at.argCol, 0)
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "expected_stddev", "expected_variance":
				// The statement's own sampler, not the handle's live
				// settings: a SET after planning must not reach a
				// statement already running.
				res, err := smp.ExpectedSpread(sub, at.argCol, at.kind == "expected_variance")
				if err != nil {
					return nil, err
				}
				aggVals[ai] = ctable.Float(res.Value)
			case "conf", "aconf":
				// Joint probability that at least one row of the group
				// exists (aconf over the disjunction of row conditions).
				d := cond.FalseCondition()
				for i := range sub.Tuples {
					d = d.Or(sub.Tuples[i].Cond)
				}
				res := smp.AConf(d)
				if res.Err != nil {
					return nil, res.Err
				}
				aggVals[ai] = ctable.Float(res.Prob)
			default:
				return nil, fmt.Errorf("sql: unhandled aggregate %s", at.kind)
			}
		}
		vals := make([]ctable.Value, len(a.outCols))
		for i, oc := range a.outCols {
			if oc.isKey {
				vals[i] = g.Key[oc.keyIdx]
			} else {
				vals[i] = aggVals[oc.aggIdx]
			}
		}
		out.Tuples = append(out.Tuples, ctable.NewTuple(vals...))
	}
	return out, nil
}
