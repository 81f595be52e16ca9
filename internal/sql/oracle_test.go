package sql

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"pip/internal/core"
	"pip/internal/ctable"
)

// The reference evaluator: a deliberately naive, eager interpretation of
// the logical plan that the physical operators are tested against. Every
// node materializes its whole output table before its parent runs — joins
// are the full cross product (ctable.Product) filtered afterwards, LIMIT is
// a slice of the finished input — so it shares no pulling, chunking or
// buffering logic with the batch operators. What it does share is the
// per-row and per-group sampling units (finishProject, stageAggRow,
// computeAgg): the oracle checks the relational plumbing around them, and
// testdata/corpus_golden.json (recorded from the since-deleted
// row-at-a-time engine) pins the absolute answers.
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
		return computeAgg(env, t, staged)
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
