package cond

import (
	"math"

	"pip/internal/expr"
)

// Verdict is the result of a consistency check. Following Algorithm 3.2,
// some verdicts are strong (definitely consistent / inconsistent) and some
// weak (no contradiction found, but equations were skipped).
type Verdict int

// Consistency verdicts.
const (
	// Inconsistent: the clause provably admits no satisfying assignment
	// (strong verdict — the row may be deleted).
	Inconsistent Verdict = iota
	// Consistent: bounds propagation reached a fixpoint with no empty
	// interval and no equation was skipped (strong verdict).
	Consistent
	// WeaklyConsistent: no contradiction was found, but some atoms were
	// beyond the tightener (non-linear, or disjunctive) and were skipped;
	// the Monte Carlo phase enforces them (weak verdict, Algorithm 3.2
	// line 13 italics).
	WeaklyConsistent
)

// String names the verdict for diagnostics.
func (v Verdict) String() string {
	switch v {
	case Inconsistent:
		return "Inconsistent"
	case Consistent:
		return "Consistent"
	case WeaklyConsistent:
		return "WeaklyConsistent"
	default:
		return "?"
	}
}

// CheckResult carries the verdict plus the bounds map accumulated during
// propagation; the sampler reuses the bounds for CDF-constrained sampling
// (Algorithm 4.3 lines 7–10).
type CheckResult struct {
	Verdict Verdict
	Bounds  Bounds
}

// maxTightenIterations caps the fixpoint loop; each productive iteration
// must shrink at least one interval, and oscillating shrinkage converges
// geometrically, so a modest cap suffices in practice.
const maxTightenIterations = 64

// CheckConsistency implements Algorithm 3.2 on a conjunctive clause:
//
//  1. Discrete contradictions: X = c1 AND X = c2 with c1 != c2 (and the
//     directly evaluable variants X = c AND X <> c, bounds excluding c).
//  2. Continuous equality handling (§III-C item 3): Y = e atoms over
//     continuous variables carry zero probability mass and are treated as
//     inconsistent; Y <> e is treated as true and ignored.
//  3. Comparisons with NaN: every one is false except <>, so an atom
//     with a deterministic NaN side, or a NaN constant or coefficient in
//     its linear form, is inconsistent.
//  4. Interval bounds fixpoint with tighten1 on each linear atom; an empty
//     interval is a strong inconsistency.
//
// Atoms that are not linear are skipped, downgrading the verdict to
// WeaklyConsistent.
func CheckConsistency(c Clause) CheckResult {
	bounds := Bounds{}
	skipped := 0

	// Seed bounds with distribution support so e.g. Exponential variables
	// start at [0, inf).
	_, vars := c.Vars()
	for k, v := range vars {
		lo, hi := v.Dist.Support()
		if lo != math.Inf(-1) || hi != math.Inf(1) {
			bounds[k] = Interval{lo, hi}
		}
	}

	// Pass 1: deterministic atoms and discrete equality contradictions.
	eqConst := map[expr.VarKey]float64{}
	for _, a := range c {
		if a.IsDeterministic() {
			if !a.Holds(nil) {
				return CheckResult{Verdict: Inconsistent, Bounds: bounds}
			}
			continue
		}
		// Single-variable equality to a constant?
		if k, val, ok := varEqualsConst(a); ok {
			v := vars[k]
			// Integer-valued classes (including countable ones like
			// Poisson) carry positive mass at integer points; only truly
			// continuous equalities are zero-mass.
			discrete := v != nil && v.Dist.IntegerValued()
			if !discrete {
				// Continuous equality: zero mass (§III-C item 3).
				return CheckResult{Verdict: Inconsistent, Bounds: bounds}
			}
			if prev, seen := eqConst[k]; seen && prev != val {
				return CheckResult{Verdict: Inconsistent, Bounds: bounds}
			}
			eqConst[k] = val
			// Equality pins the interval.
			iv := bounds.Get(k).Intersect(Interval{val, val})
			if iv.Empty() {
				return CheckResult{Verdict: Inconsistent, Bounds: bounds}
			}
			bounds[k] = iv
		}
	}

	// Pass 2: fixpoint interval propagation with tighten1 over linear atoms.
	lins := make([]linAtom, 0, len(c))
	for _, a := range c {
		if a.IsDeterministic() {
			continue
		}
		la, ok := makeLinAtom(a)
		if a.Op != NEQ && comparesNaN(a, la, ok) {
			return CheckResult{Verdict: Inconsistent, Bounds: bounds}
		}
		if !ok {
			// Non-linear (degree > 1 or non-polynomial): tightenN for
			// higher degrees is not implemented, so skip (Alg 3.2 line 11).
			skipped++
			continue
		}
		if la.skip {
			skipped++
			continue
		}
		lins = append(lins, la)
	}

	changed := true
	for iter := 0; iter < maxTightenIterations && changed; iter++ {
		changed = false
		for _, la := range lins {
			for _, k := range la.keys {
				iv := tighten1(k, la, bounds)
				cur := bounds.Get(k)
				next := cur.Intersect(iv)
				if next.Empty() {
					bounds[k] = next
					return CheckResult{Verdict: Inconsistent, Bounds: bounds}
				}
				if next != cur {
					bounds[k] = next
					changed = true
				}
			}
		}
	}

	if skipped > 0 {
		return CheckResult{Verdict: WeaklyConsistent, Bounds: bounds}
	}
	return CheckResult{Verdict: Consistent, Bounds: bounds}
}

// comparesNaN reports whether atom a compares against NaN: its linear form
// (la, when linear) has a NaN constant or coefficient, or a deterministic
// side of a nonlinear atom evaluates to NaN.
func comparesNaN(a Atom, la linAtom, linear bool) bool {
	if linear {
		if math.IsNaN(la.lf.Constant) {
			return true
		}
		for _, k := range la.keys {
			if math.IsNaN(la.lf.Coeffs[k]) {
				return true
			}
		}
		return false
	}
	for _, side := range [2]expr.Expr{a.Left, a.Right} {
		if expr.IsDeterministic(side) && math.IsNaN(side.Eval(nil)) {
			return true
		}
	}
	return false
}

// varEqualsConst recognises atoms of the form X = c or c = X with exactly
// one variable on one side.
func varEqualsConst(a Atom) (expr.VarKey, float64, bool) {
	if a.Op != EQ {
		return expr.VarKey{}, 0, false
	}
	if v, ok := a.Left.(expr.Var); ok && expr.IsDeterministic(a.Right) {
		return v.V.Key, a.Right.Eval(nil), true
	}
	if v, ok := a.Right.(expr.Var); ok && expr.IsDeterministic(a.Left) {
		return v.V.Key, a.Left.Eval(nil), true
	}
	return expr.VarKey{}, 0, false
}

// linAtom is an atom reduced to the normal form
//
//	sum_i coeff_i * X_i + constant  (op)  0
//
// with op one of >, >=, <, <=, <> (equalities over continuous variables are
// handled in pass 1; over discrete variables they become two inequalities).
type linAtom struct {
	lf   expr.LinearForm
	op   CmpOp
	keys []expr.VarKey
	skip bool
}

func makeLinAtom(a Atom) (linAtom, bool) {
	lf, ok := a.diff()
	if !ok {
		return linAtom{}, false
	}
	la := linAtom{lf: lf, op: a.Op, keys: lf.SortedKeys()}
	switch a.Op {
	case NEQ:
		// Single-point exclusions don't tighten intervals; skip.
		la.skip = true
	case EQ:
		// Treated as both >= and <=; tighten1 handles EQ by clamping both
		// sides, which we express by running GE and LE passes. Mark EQ and
		// let tighten1 compute the two-sided bound.
	}
	return la, true
}

// tighten1 implements the degree-1 tightener of Algorithm 3.2: given
// aX + (rest) op 0 and bounds on the other variables, derive an implied
// interval for X. For a > 0 and op ">= 0": X >= -(max of rest)/a is wrong —
// we need the *minimum* of the rest to find the loosest bound that must
// still hold; the derivation below uses interval arithmetic on the rest
// term, which handles both signs uniformly.
func tighten1(x expr.VarKey, la linAtom, b Bounds) Interval {
	a := la.lf.Coeffs[x]
	if a == 0 {
		return FullInterval()
	}
	// rest = constant + sum_{k != x} coeff_k * X_k, as an interval.
	restLo, restHi := la.lf.Constant, la.lf.Constant
	for _, k := range la.keys {
		if k == x {
			continue
		}
		ck := la.lf.Coeffs[k]
		iv := b.Get(k)
		lo, hi := scaleInterval(ck, iv)
		restLo += lo
		restHi += hi
		if math.IsInf(restLo, -1) && math.IsInf(restHi, 1) {
			// No information to be had.
			return FullInterval()
		}
	}

	// a*X + rest (op) 0  =>  X (op') -rest/a, where the satisfiable region
	// over all rest values in [restLo, restHi] is the union; the implied
	// *necessary* bound on X uses the extreme of -rest/a that keeps the
	// atom satisfiable for at least one rest value.
	//
	// For op in {GT, GE}: a*X >= -rest for some rest in [restLo, restHi]
	//   => a*X >= -restHi.
	// For op in {LT, LE}: a*X <= -rest for some rest => a*X <= -restLo.
	// For EQ: a*X = -rest for some rest => a*X in [-restHi, -restLo].
	switch la.op {
	case GT, GE:
		bound := -restHi
		if a > 0 {
			return Interval{bound / a, math.Inf(1)}
		}
		return Interval{math.Inf(-1), bound / a}
	case LT, LE:
		bound := -restLo
		if a > 0 {
			return Interval{math.Inf(-1), bound / a}
		}
		return Interval{bound / a, math.Inf(1)}
	case EQ:
		lo, hi := -restHi, -restLo
		if a > 0 {
			return Interval{lo / a, hi / a}
		}
		return Interval{hi / a, lo / a}
	default:
		return FullInterval()
	}
}

// scaleInterval returns c * [iv.Lo, iv.Hi] as (lo, hi), handling sign and
// infinities (0 * inf is treated as 0, which is the correct limit for
// coefficient 0).
func scaleInterval(c float64, iv Interval) (float64, float64) {
	if c == 0 {
		return 0, 0
	}
	lo, hi := c*iv.Lo, c*iv.Hi
	if c < 0 {
		lo, hi = hi, lo
	}
	if math.IsNaN(lo) {
		lo = math.Inf(-1)
	}
	if math.IsNaN(hi) {
		hi = math.Inf(1)
	}
	return lo, hi
}
