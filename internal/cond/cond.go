// Package cond implements c-table conditions (paper §II-A, §III-B/C):
// boolean formulas over atomic comparisons of random-variable equations.
//
// Following the paper, each c-table row carries a conjunction of atoms;
// general boolean structure is maintained in disjunctive normal form, with
// disjunctive terms normally encoded as separate rows (bag semantics) and
// coalesced by DISTINCT. The package therefore provides two layers:
//
//   - Clause: a conjunction of atoms — the per-row local condition.
//   - Condition: a DNF (disjunction of clauses), produced by distinct and
//     difference, and consumed by the aconf() general integrator.
//
// It also implements Algorithm 3.2 (consistency checking with interval
// bounds propagation, tighten1 for linear atoms) and the minimal
// independent variable-subset partitioning of §IV-A-c.
package cond

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pip/internal/expr"
)

// CmpOp enumerates the comparison operators allowed in atomic conditions.
type CmpOp int

// Comparison operators (=, <>, <, <=, >, >=).
const (
	EQ CmpOp = iota
	NEQ
	LT
	LE
	GT
	GE
)

// String renders the operator in SQL syntax.
func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NEQ:
		return "<>"
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary comparison operator.
func (o CmpOp) Negate() CmpOp {
	switch o {
	case EQ:
		return NEQ
	case NEQ:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	case GE:
		return LT
	default:
		return o
	}
}

// holds evaluates the comparison on concrete values.
func (o CmpOp) holds(l, r float64) bool {
	switch o {
	case EQ:
		return l == r
	case NEQ:
		return l != r
	case LT:
		return l < r
	case LE:
		return l <= r
	case GT:
		return l > r
	case GE:
		return l >= r
	default:
		return false
	}
}

// Atom is an atomic condition: an inequality between two random-variable
// equations (constants being the degenerate case).
type Atom struct {
	Op          CmpOp
	Left, Right expr.Expr
}

// NewAtom builds an atom.
func NewAtom(l expr.Expr, op CmpOp, r expr.Expr) Atom {
	return Atom{Op: op, Left: l, Right: r}
}

// Holds evaluates the atom under a concrete variable assignment.
func (a Atom) Holds(asn expr.Assignment) bool {
	return a.Op.holds(a.Left.Eval(asn), a.Right.Eval(asn))
}

// Negate returns the complementary atom.
func (a Atom) Negate() Atom {
	return Atom{Op: a.Op.Negate(), Left: a.Left, Right: a.Right}
}

// CollectVars adds the atom's variables to set.
func (a Atom) CollectVars(set map[expr.VarKey]*expr.Variable) {
	a.Left.CollectVars(set)
	a.Right.CollectVars(set)
}

// IsDeterministic reports whether the atom contains no random variables.
func (a Atom) IsDeterministic() bool {
	return expr.IsDeterministic(a.Left) && expr.IsDeterministic(a.Right)
}

// String renders the atom in infix form.
func (a Atom) String() string {
	return a.Left.String() + " " + a.Op.String() + " " + a.Right.String()
}

// diff returns the linear form of Left - Right, used by the bounds tightener.
func (a Atom) diff() (expr.LinearForm, bool) {
	return expr.Linearize(expr.Sub(a.Left, a.Right))
}

// Clause is a conjunction of atoms — the local condition of one c-table row.
// The nil/empty clause is TRUE.
type Clause []Atom

// TrueClause is the always-true local condition.
func TrueClause() Clause { return nil }

// And returns the conjunction of c and atoms, simplifying away atoms that
// are deterministically true and collapsing to a contradiction marker when a
// deterministic atom is false. The second return value is false if the
// clause is deterministically unsatisfiable.
func (c Clause) And(atoms ...Atom) (Clause, bool) {
	out := make(Clause, 0, len(c)+len(atoms))
	out = append(out, c...)
	for _, a := range atoms {
		if a.IsDeterministic() {
			if a.Holds(nil) {
				continue // trivially true: drop
			}
			return nil, false // trivially false: row cannot exist
		}
		out = append(out, a)
	}
	return out, true
}

// AndClause conjoins two clauses (deterministic simplification as in And).
func (c Clause) AndClause(o Clause) (Clause, bool) {
	return c.And(o...)
}

// Holds evaluates the conjunction under an assignment.
func (c Clause) Holds(asn expr.Assignment) bool {
	for _, a := range c {
		if !a.Holds(asn) {
			return false
		}
	}
	return true
}

// CollectVars adds all variables of the clause to set.
func (c Clause) CollectVars(set map[expr.VarKey]*expr.Variable) {
	for _, a := range c {
		a.CollectVars(set)
	}
}

// Vars returns the clause's variables as a key-sorted slice plus lookup map.
func (c Clause) Vars() ([]expr.VarKey, map[expr.VarKey]*expr.Variable) {
	set := map[expr.VarKey]*expr.Variable{}
	c.CollectVars(set)
	keys := make([]expr.VarKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, expr.VarKey.Compare)
	return keys, set
}

// IsTrue reports whether the clause is the trivial TRUE condition.
func (c Clause) IsTrue() bool { return len(c) == 0 }

// String renders the clause; TRUE for the empty clause.
func (c Clause) String() string {
	if len(c) == 0 {
		return "TRUE"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " AND ")
}

// NegateToDNF returns NOT(c) as a DNF condition: by De Morgan, the negation
// of a conjunction is the disjunction of the negated atoms. Used by the
// c-table difference operator (Fig. 1).
func (c Clause) NegateToDNF() Condition {
	if len(c) == 0 {
		return FalseCondition()
	}
	out := Condition{Clauses: make([]Clause, 0, len(c))}
	for _, a := range c {
		out.Clauses = append(out.Clauses, Clause{a.Negate()})
	}
	return out
}

// Condition is a DNF formula: a disjunction of conjunctive clauses. The
// zero value (no clauses, False=false marker absent) — use TrueCondition or
// FalseCondition constructors. A Condition with zero clauses is FALSE; the
// TRUE condition is a single empty clause.
type Condition struct {
	Clauses []Clause
}

// TrueCondition returns the always-true condition.
func TrueCondition() Condition { return Condition{Clauses: []Clause{nil}} }

// FalseCondition returns the always-false condition.
func FalseCondition() Condition { return Condition{} }

// FromClause wraps a single conjunctive clause as a DNF condition.
func FromClause(c Clause) Condition { return Condition{Clauses: []Clause{c}} }

// IsFalse reports whether the condition has no satisfiable clause
// syntactically (no clauses at all).
func (d Condition) IsFalse() bool { return len(d.Clauses) == 0 }

// IsTrivialTrue reports whether the condition is exactly the single TRUE
// clause — the shape for which And is the identity on the other operand.
// Callers that batch work across And calls key on this, not IsTrue, because
// a multi-clause condition with one TRUE clause still distributes.
func (d Condition) IsTrivialTrue() bool {
	return len(d.Clauses) == 1 && len(d.Clauses[0]) == 0
}

// IsTrue reports whether some clause is the trivial TRUE clause.
func (d Condition) IsTrue() bool {
	for _, c := range d.Clauses {
		if c.IsTrue() {
			return true
		}
	}
	return false
}

// Holds evaluates the DNF under an assignment.
func (d Condition) Holds(asn expr.Assignment) bool {
	for _, c := range d.Clauses {
		if c.Holds(asn) {
			return true
		}
	}
	return false
}

// Or returns the disjunction of two conditions (clause concatenation).
func (d Condition) Or(o Condition) Condition {
	out := Condition{Clauses: make([]Clause, 0, len(d.Clauses)+len(o.Clauses))}
	out.Clauses = append(out.Clauses, d.Clauses...)
	out.Clauses = append(out.Clauses, o.Clauses...)
	return out
}

// And returns the conjunction of two DNF conditions by distributing clauses
// (cross product). Deterministically false products are dropped.
func (d Condition) And(o Condition) Condition {
	// Identity fast paths: a side whose sole clause is TRUE cannot change
	// the other side, because Clause.And never stores deterministic atoms,
	// so distributing TRUE over the other side reproduces it exactly.
	// Conditions are immutable by convention, so returning the operand
	// unchanged is safe sharing, not aliasing.
	if len(d.Clauses) == 1 && len(d.Clauses[0]) == 0 {
		return o
	}
	if len(o.Clauses) == 1 && len(o.Clauses[0]) == 0 {
		return d
	}
	out := Condition{}
	for _, a := range d.Clauses {
		for _, b := range o.Clauses {
			if merged, ok := a.AndClause(b); ok {
				out.Clauses = append(out.Clauses, merged)
			}
		}
	}
	return out
}

// CollectVars adds all variables of the condition to set.
func (d Condition) CollectVars(set map[expr.VarKey]*expr.Variable) {
	for _, c := range d.Clauses {
		c.CollectVars(set)
	}
}

// String renders the DNF.
func (d Condition) String() string {
	if len(d.Clauses) == 0 {
		return "FALSE"
	}
	parts := make([]string, len(d.Clauses))
	for i, c := range d.Clauses {
		if len(d.Clauses) > 1 && len(c) > 1 {
			parts[i] = "(" + c.String() + ")"
		} else {
			parts[i] = c.String()
		}
	}
	return strings.Join(parts, " OR ")
}

// ---------------------------------------------------------------------------
// Interval bounds

// Interval is a closed interval [Lo, Hi] over the extended reals. The
// consistency checker propagates one Interval per continuous variable.
type Interval struct {
	Lo, Hi float64
}

// FullInterval is (-inf, +inf).
func FullInterval() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Empty reports whether the interval contains no points.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Intersect returns the intersection of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	return Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
}

// Contains reports whether x lies in the interval.
func (iv Interval) Contains(x float64) bool { return x >= iv.Lo && x <= iv.Hi }

// Bounded reports whether either side is finite (i.e. the interval carries
// information beyond the full real line).
func (iv Interval) Bounded() bool {
	return !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1)
}

// String renders the interval.
func (iv Interval) String() string {
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// Bounds maps variables to their propagated intervals.
type Bounds map[expr.VarKey]Interval

// Get returns the interval for k, defaulting to the full real line.
func (b Bounds) Get(k expr.VarKey) Interval {
	if iv, ok := b[k]; ok {
		return iv
	}
	return FullInterval()
}
