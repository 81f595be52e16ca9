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
		bc := batchCmp{op: cmp.Op, lcol: -1, rcol: -1}
		switch s := cmp.Left.(type) {
		case Col:
			bc.lcol = int(s)
		case Lit:
			bc.lv = s.V
		default:
			return nil, false
		}
		switch s := cmp.Right.(type) {
		case Col:
			bc.rcol = int(s)
		case Lit:
			bc.rv = s.V
		default:
			return nil, false
		}
		bp.cmps = append(bp.cmps, bc)
	}
	return bp, true
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
		if !detHolds(c.op, cmp) {
			return false, true
		}
	}
	return true, true
}
