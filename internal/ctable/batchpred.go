package ctable

import "pip/internal/cond"

// This file is the columnar twin of ApplyPredicate: a selection predicate
// compiled once per query into a flat conjunct list that evaluates straight
// against Batch columns, with no per-row gather, no Tuple construction and
// no interface boxing. It covers the deterministic comparison fragment —
// Compare conjuncts whose operands are column references or literals —
// which is how equi-join residuals and constant filters arrive after
// planning. Rows that leave the fragment at runtime (a symbolic operand, an
// incomparable pair) are reported back to the caller, which must run
// ApplyPredicate on exactly that row so outcomes, condition rewrites and
// error messages are ApplyPredicate's.

// batchCmp is one compiled Compare conjunct. A negative column index means
// the corresponding literal value is used instead.
type batchCmp struct {
	op         cond.CmpOp
	lcol, rcol int
	lv, rv     Value
}

// BatchPred is a predicate compiled for columnar evaluation. The zero value
// is unusable; construct with CompileBatchPred.
type BatchPred struct {
	cmps []batchCmp
}

// CompileBatchPred compiles p for columnar evaluation. ok is false when p
// contains a conjunct outside the Compare(Col|Lit, Col|Lit) fragment, in
// which case the caller must run ApplyPredicate on every row.
func CompileBatchPred(p AndPred) (*BatchPred, bool) {
	bp := &BatchPred{cmps: make([]batchCmp, 0, len(p))}
	for _, conj := range p {
		cmp, isCmp := conj.(Compare)
		if !isCmp {
			return nil, false
		}
		bc, ok := compileCmp(cmp)
		if !ok {
			return nil, false
		}
		bp.cmps = append(bp.cmps, bc)
	}
	return bp, true
}

// compileCmp compiles one Compare whose operands are Col or Lit.
func compileCmp(cmp Compare) (batchCmp, bool) {
	bc := batchCmp{op: cmp.Op, lcol: -1, rcol: -1}
	switch s := cmp.Left.(type) {
	case Col:
		bc.lcol = int(s)
	case Lit:
		bc.lv = s.V
	default:
		return batchCmp{}, false
	}
	switch s := cmp.Right.(type) {
	case Col:
		bc.rcol = int(s)
	case Lit:
		bc.rv = s.V
	default:
		return batchCmp{}, false
	}
	return bc, true
}

// EvalRow evaluates the conjunction against physical row phys of b. ok is
// false when the row needs ApplyPredicate (a symbolic operand or an
// incomparable pair — the latter so the fallback raises Compare.Eval's
// exact error). With ok true, keep reports the deterministic
// verdict; a kept row's condition is untouched, exactly as ApplyPredicate
// leaves a PredTrue row. Conjuncts short-circuit in predicate order, and
// each conjunct checks NULL before symbolic, mirroring Compare.Eval.
func (bp *BatchPred) EvalRow(b *Batch, phys int) (keep, ok bool) {
	for i := range bp.cmps {
		c := &bp.cmps[i]
		l := &c.lv
		if c.lcol >= 0 {
			if c.lcol >= len(b.Cols) {
				return false, false
			}
			l = &b.Cols[c.lcol][phys]
		}
		r := &c.rv
		if c.rcol >= 0 {
			if c.rcol >= len(b.Cols) {
				return false, false
			}
			r = &b.Cols[c.rcol][phys]
		}
		if keep, ok := c.decide(l, r); !keep || !ok {
			return keep, ok
		}
	}
	return true, true
}

// decide evaluates the comparison on its two operand cells: ok is false
// for a symbolic operand or an incomparable pair; NULL is checked first.
func (c *batchCmp) decide(l, r *Value) (keep, ok bool) {
	if l.Kind == KindNull || r.Kind == KindNull {
		return false, true
	}
	if l.Kind == KindExpr || r.Kind == KindExpr {
		return false, false
	}
	// Numeric pairs dominate filter traffic; compare them in place
	// (Value.Compare's exact numeric arm) without copying the 64-byte
	// cells. Everything else takes the general path.
	var cmp int
	if (l.Kind == KindFloat || l.Kind == KindInt) &&
		(r.Kind == KindFloat || r.Kind == KindInt) {
		a, z := l.F, r.F
		if l.Kind == KindInt {
			a = float64(l.I)
		}
		if r.Kind == KindInt {
			z = float64(r.I)
		}
		switch {
		case a < z:
			cmp = -1
		case a > z:
			cmp = 1
		}
	} else {
		var comparable bool
		cmp, comparable = l.Compare(*r)
		if !comparable {
			return false, false
		}
	}
	return detHolds(c.op, cmp), true
}

// ScanFilter is a drop-only prefilter compiled for a table scan. It reads
// a stored row's cells before the row is copied anywhere and drops the row
// only when some conjunct is deterministically false on them; a conjunct it
// cannot decide keeps the row. It never builds a condition atom and never
// reports an error: the filter above the scan re-evaluates every conjunct
// on the rows that survive.
type ScanFilter struct {
	conjs []scanConj
}

// scanConj is one prefilter conjunct: a Compare(Col|Lit, Col|Lit) decided
// by batchCmp, or, when arith is set, a comparison over arithmetic that
// Compare.Eval decides once none of the cells in cols is symbolic.
type scanConj struct {
	batchCmp
	arith Compare
	cols  []int
}

// CompileScanFilter compiles the conjunction of cmps for scanning. A
// conjunct outside the Col, Lit and Arith scalars, or with a symbolic
// literal under arithmetic, is left out: it can never drop a row here.
func CompileScanFilter(cmps []Compare) *ScanFilter {
	f := &ScanFilter{conjs: make([]scanConj, 0, len(cmps))}
	for _, cmp := range cmps {
		var sc scanConj
		if bc, ok := compileCmp(cmp); ok {
			sc.batchCmp = bc
		} else if cols := []int{}; arithCols(cmp.Left, &cols) && arithCols(cmp.Right, &cols) {
			sc.arith, sc.cols = cmp, cols
		} else {
			continue
		}
		f.conjs = append(f.conjs, sc)
	}
	return f
}

// Drops reports whether some conjunct is deterministically false on t's
// cells; conjuncts are evaluated one at a time, in order.
func (f *ScanFilter) Drops(t *Tuple) bool {
	for i := range f.conjs {
		c := &f.conjs[i]
		if c.cols == nil {
			l, r := &c.lv, &c.rv
			if c.lcol >= 0 {
				if c.lcol >= len(t.Values) {
					continue
				}
				l = &t.Values[c.lcol]
			}
			if c.rcol >= 0 {
				if c.rcol >= len(t.Values) {
					continue
				}
				r = &t.Values[c.rcol]
			}
			if keep, ok := c.decide(l, r); ok && !keep {
				return true
			}
			continue
		}
		if anySymbolic(t.Values, c.cols) {
			continue
		}
		if out, _, err := c.arith.Eval(t); err == nil && out == PredFalse {
			return true
		}
	}
	return false
}

// arithCols appends the columns s reads to cols. It reports false when s
// is not built from Col, Lit and Arith, or holds a symbolic literal.
func arithCols(s Scalar, cols *[]int) bool {
	switch t := s.(type) {
	case Col:
		*cols = append(*cols, int(t))
		return true
	case Lit:
		return !t.V.IsSymbolic()
	case Arith:
		return arithCols(t.Left, cols) && arithCols(t.Right, cols)
	default:
		return false
	}
}

// anySymbolic reports whether any of the cells vals[cols] is symbolic (or
// out of range, which Compare.Eval would report as an error).
func anySymbolic(vals []Value, cols []int) bool {
	for _, c := range cols {
		if c < 0 || c >= len(vals) || vals[c].IsSymbolic() {
			return true
		}
	}
	return false
}
