package sql

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
)

// The reference evaluator: a deliberately naive, eager interpretation of
// the logical plan that the physical operators are tested against. Every
// node materializes its whole output table before its parent runs — joins
// are the full cross product (ctable.Product) filtered afterwards, LIMIT is
// a slice of the finished input — so it shares no pulling, chunking or
// buffering logic with the batch operators. What it does share is the
// per-row sampling units (finishProject, stageAggRow, and the sampler's
// Expectation and AConf): the oracle checks the relational plumbing around
// them, and testdata/corpus_golden.json (recorded from the since-deleted
// row-at-a-time engine) pins the absolute answers. Aggregates run the
// staged path the Aggregate operator's fold replaced (oracleAgg).
//
// Being eager, it evaluates rows a LIMIT would have cut off; a query whose
// discarded rows raise errors is outside what it can referee.

// naiveExec parses and plans one SELECT and evaluates the logical plan with
// evalNaive under the hints carried by ctx.
func naiveExec(ctx context.Context, db *core.DB, q string, args ...ctable.Value) (*ctable.Table, error) {
	st, err := Parse(q)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("oracle: %T is not a SELECT", st)
	}
	env := newExecEnv(ctx, db, args)
	root, name, err := buildLogical(env, sel)
	if err != nil {
		return nil, err
	}
	out, err := evalNaive(env, root)
	if err != nil {
		return nil, err
	}
	out.Name = name
	return out, nil
}

// evalNaive materializes the output of one logical node.
func evalNaive(env execEnv, n lnode) (*ctable.Table, error) {
	switch t := n.(type) {
	case *lScan:
		return naiveScan(t), nil
	case *lJoin:
		return naiveJoin(env, t)
	case *lEmpty:
		return &ctable.Table{}, nil
	}
	in, err := evalNaive(env, n.children()[0])
	if err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *lFilter:
		pred := make(ctable.AndPred, len(t.preds))
		for i, p := range t.preds {
			pred[i] = p.cmp
		}
		return ctable.Select(in, pred)
	case *lProject:
		out := ctable.New("", t.names...)
		for i := range in.Tuples {
			row, err := finishProject(env, t, &in.Tuples[i], make([]ctable.Value, len(t.targets)))
			if err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, row)
		}
		return out, nil
	case *lAggregate:
		staged := ctable.New("agg_input", t.stagedNames...)
		for i := range in.Tuples {
			row, err := stageAggRow(t, &in.Tuples[i])
			if err != nil {
				return nil, err
			}
			staged.Tuples = append(staged.Tuples, row)
		}
		return oracleAgg(env, t, staged)
	case *lDistinct:
		return ctable.Distinct(in), nil
	case *lSort:
		var sortErr error
		sort.SliceStable(in.Tuples, func(i, j int) bool {
			c, ok := in.Tuples[i].Values[t.col].Compare(in.Tuples[j].Values[t.col])
			if !ok {
				sortErr = fmt.Errorf("sql: ORDER BY over symbolic column %s", t.name)
			}
			if t.desc {
				return c > 0
			}
			return c < 0
		})
		return in, sortErr
	case *lLimit:
		if len(in.Tuples) > t.n {
			in.Tuples = in.Tuples[:t.n]
		}
		return in, nil
	}
	return nil, fmt.Errorf("oracle: unknown plan node %T", n)
}

// naiveScan copies the snapshot rows that survive the scan's contract:
// trivially false conditions, rows the equality lookup does not return and
// rows the drop-only prefilter proves false are skipped, and the kept
// columns are projected. The lookup is restated per row (naiveCandidate),
// not read from the index.
func naiveScan(s *lScan) *ctable.Table {
	out := ctable.New(s.table, s.outCols()...)
rows:
	for i := range s.tuples {
		t := &s.tuples[i]
		if t.Cond.IsFalse() {
			continue
		}
		if s.key != nil && !naiveCandidate(t.Values[s.key.col], s.key.val) {
			continue
		}
		for _, p := range s.pre {
			if outcome, _, err := p.cmp.Eval(t); err == nil && outcome == ctable.PredFalse {
				continue rows
			}
		}
		vals := t.Values
		if s.keep != nil {
			vals = make([]ctable.Value, len(s.keep))
			for k, c := range s.keep {
				vals[k] = t.Values[c]
			}
		}
		out.Tuples = append(out.Tuples, ctable.Tuple{Values: vals, Cond: t.Cond})
	}
	return out
}

// naiveCandidate is the equality lookup's contract for one cell: a number
// is a candidate for a numerically equal key (so 1 = 1.0 and -0 = +0), a
// string for the same string, and a cell no key can decide — symbolic,
// NULL, bool or NaN — for every key.
func naiveCandidate(cell, key ctable.Value) bool {
	switch cell.Kind {
	case ctable.KindString:
		return key.Kind == ctable.KindString && cell.S == key.S
	case ctable.KindInt, ctable.KindFloat:
		f, _ := cell.AsFloat()
		k, ok := key.AsFloat()
		return f != f || (ok && f == k)
	default:
		return true
	}
}

// naiveJoin is the cross product; a hash join then discards the pairs whose
// key cells are all deterministic and differ. A pair with a symbolic key
// cell on either side stays (the Filter above conjoins the comparison as a
// condition atom), which is exactly the hash join's stated contract.
func naiveJoin(env execEnv, j *lJoin) (*ctable.Table, error) {
	left, err := evalNaive(env, j.left)
	if err != nil {
		return nil, err
	}
	right, err := evalNaive(env, j.right)
	if err != nil {
		return nil, err
	}
	out := ctable.Product(left, right)
	if !j.hash {
		return out, nil
	}
	nLeft := len(left.Schema)
	kept := out.Tuples[:0]
	for _, t := range out.Tuples {
		lk, lok := naiveKey(t.Values, j.leftKeys, 0)
		rk, rok := naiveKey(t.Values, j.rightKeys, nLeft)
		if !lok || !rok || bytes.Equal(lk, rk) {
			kept = append(kept, t)
		}
	}
	out.Tuples = kept
	return out, nil
}

// naiveKey renders the key cells at cols (shifted by off) in the engine's
// key equivalence classes, reporting ok=false when any of them is symbolic.
func naiveKey(vals []ctable.Value, cols []int, off int) ([]byte, bool) {
	var key []byte
	for _, c := range cols {
		v := vals[off+c]
		if v.IsSymbolic() {
			return nil, false
		}
		key = v.AppendBinaryKey(key)
	}
	return key, true
}

// oracleAgg is the staged aggregate path: every input row staged, the
// staged table partitioned by ctable.GroupBy, and each group's aggregates
// evaluated over its own sub-table, a row at a time. The decomposable
// aggregates sum their per-row terms (oracleTerm, or a condition's
// confidence) in oracleSum's layout with no sampler.RowSum, so the fold's
// summation is checked against an independent one.
func oracleAgg(env execEnv, a *lAggregate, staged *ctable.Table) (*ctable.Table, error) {
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
		if groups, err = ctable.GroupBy(staged, keyCols); err != nil {
			return nil, err
		}
	}
	out := ctable.New("result", a.outNames...)
	smp := env.smp
	for _, g := range groups {
		if err := env.ctxErr(); err != nil {
			return nil, err
		}
		sub := &ctable.Table{Name: staged.Name, Schema: staged.Schema}
		for _, ri := range g.Rows {
			sub.Tuples = append(sub.Tuples, staged.Tuples[ri])
		}
		// sum and count return the group's sum of terms and of the
		// confidences of the rows keep accepts.
		sum := func(col int) (float64, error) {
			rowSmp := oracleRelax(smp, sub.Len())
			terms := make([]float64, 0, sub.Len())
			for i := range sub.Tuples {
				v, err := oracleTerm(rowSmp, &sub.Tuples[i], col)
				if err != nil {
					return 0, err
				}
				terms = append(terms, v)
			}
			return oracleSum(terms), nil
		}
		count := func(keep func(t *ctable.Tuple) bool) (float64, error) {
			var terms []float64
			for i := range sub.Tuples {
				if !keep(&sub.Tuples[i]) {
					continue
				}
				r := smp.AConf(sub.Tuples[i].Cond)
				if r.Err != nil {
					return 0, r.Err
				}
				terms = append(terms, r.Prob)
			}
			return oracleSum(terms), nil
		}
		all := func(*ctable.Tuple) bool { return true }
		aggVals := make([]ctable.Value, len(a.aggs))
		for ai, at := range a.aggs {
			var v float64
			var err error
			switch at.kind {
			case "expected_sum":
				v, err = sum(at.argCol)
			case "expected_count":
				v, err = count(all)
			case "expected_avg":
				var n float64
				if v, err = sum(at.argCol); err == nil {
					n, err = count(func(t *ctable.Tuple) bool { return !t.Values[at.argCol].IsNull() })
				}
				if v /= n; n == 0 {
					v = math.NaN()
				}
			case "expected_max":
				var res sampler.AggregateResult
				res, err = smp.ExpectedMax(sub, at.argCol, 0)
				v = res.Value
			case "expected_stddev", "expected_variance":
				var res sampler.AggregateResult
				res, err = smp.ExpectedSpread(sub, at.argCol, at.kind == "expected_variance")
				v = res.Value
			case "conf", "aconf":
				d := cond.FalseCondition()
				for i := range sub.Tuples {
					d = d.Or(sub.Tuples[i].Cond)
				}
				r := smp.AConf(d)
				v, err = r.Prob, r.Err
			default:
				err = fmt.Errorf("sql: unhandled aggregate %s", at.kind)
			}
			if err != nil {
				return nil, err
			}
			aggVals[ai] = ctable.Float(v)
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

// oracleTerm is one row's expected_sum term, P[φ]·E[h | φ]: 0 for a NULL
// cell and for an impossible condition or an undefined mean.
func oracleTerm(smp *sampler.Sampler, t *ctable.Tuple, col int) (float64, error) {
	v := t.Values[col]
	if v.IsNull() {
		return 0, nil
	}
	e, ok := v.AsExpr()
	if !ok {
		return 0, fmt.Errorf("sampler: non-numeric aggregate target %s", v)
	}
	r := smp.ExpectationDNF(e, t.Cond, true)
	if r.Err != nil {
		return 0, r.Err
	}
	if r.Prob == 0 || math.IsNaN(r.Mean) {
		return 0, nil
	}
	return r.Mean * r.Prob, nil
}

// oracleRelax relaxes the per-row confidence of a sum over rows rows by
// √rows (paper §IV-C), as the engine's expected_sum does.
func oracleRelax(smp *sampler.Sampler, rows int) *sampler.Sampler {
	cfg := smp.Config()
	if rows <= 1 || cfg.FixedSamples > 0 {
		return smp
	}
	cfg.Delta = math.Min(cfg.Delta*math.Sqrt(float64(rows)), 0.5)
	return sampler.New(cfg)
}

// oracleRowBatch is the sampler's row batch: terms are summed in partials
// of this many rows, added in row order; a single term is its own sum.
const oracleRowBatch = 8

func oracleSum(terms []float64) float64 {
	if len(terms) == 1 {
		return terms[0]
	}
	total := 0.0
	for lo := 0; lo < len(terms); lo += oracleRowBatch {
		part := 0.0
		for _, v := range terms[lo:min(lo+oracleRowBatch, len(terms))] {
			part += v
		}
		total += part
	}
	return total
}
