package ctable

import (
	"fmt"

	"pip/internal/cond"
	"pip/internal/expr"
)

// Scalar is a target-clause scalar expression over a tuple: column
// references, literals and arithmetic. Resolving a Scalar against a tuple
// yields a Value; if any referenced column is symbolic the result is a
// symbolic equation (operator overloading of paper §V-A — "arbitrary
// equations may be constructed in this way").
type Scalar interface {
	// Resolve evaluates the scalar against a tuple.
	Resolve(t *Tuple) (Value, error)
	// String renders the scalar for display/planning output.
	String() string
}

// Col references a column by position.
type Col int

// Resolve implements Scalar.
func (c Col) Resolve(t *Tuple) (Value, error) {
	if int(c) < 0 || int(c) >= len(t.Values) {
		return Value{}, fmt.Errorf("ctable: column index %d out of range (%d columns)", c, len(t.Values))
	}
	return t.Values[c], nil
}

// String implements Scalar.
func (c Col) String() string { return fmt.Sprintf("$%d", int(c)) }

// Lit is a literal scalar.
type Lit struct{ V Value }

// LitFloat wraps a float literal.
func LitFloat(f float64) Lit { return Lit{Float(f)} }

// LitString wraps a string literal.
func LitString(s string) Lit { return Lit{String_(s)} }

// Resolve implements Scalar.
func (l Lit) Resolve(*Tuple) (Value, error) { return l.V, nil }

// String implements Scalar.
func (l Lit) String() string { return l.V.String() }

// Arith is an arithmetic combination of two scalars.
type Arith struct {
	Op          expr.Op
	Left, Right Scalar
}

// Resolve implements Scalar: deterministic operands compute as floats,
// with the bits folding a Bin of two Consts would give; a symbolic operand
// builds an equation tree.
func (a Arith) Resolve(t *Tuple) (Value, error) {
	l, err := a.Left.Resolve(t)
	if err != nil {
		return Value{}, err
	}
	r, err := a.Right.Resolve(t)
	if err != nil {
		return Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	if !l.IsSymbolic() && !r.IsSymbolic() {
		lf, ok := l.AsFloat()
		if !ok {
			return Value{}, fmt.Errorf("ctable: non-numeric operand %s in arithmetic", l)
		}
		rf, ok := r.AsFloat()
		if !ok {
			return Value{}, fmt.Errorf("ctable: non-numeric operand %s in arithmetic", r)
		}
		switch a.Op {
		case expr.OpAdd:
			return Float(lf + rf), nil
		case expr.OpSub:
			return Float(lf - rf), nil
		case expr.OpMul:
			return Float(lf * rf), nil
		case expr.OpDiv:
			return Float(lf / rf), nil
		default:
			return Value{}, fmt.Errorf("ctable: unknown arithmetic op %v", a.Op)
		}
	}
	le, ok := l.AsExpr()
	if !ok {
		return Value{}, fmt.Errorf("ctable: non-numeric operand %s in arithmetic", l)
	}
	re, ok := r.AsExpr()
	if !ok {
		return Value{}, fmt.Errorf("ctable: non-numeric operand %s in arithmetic", r)
	}
	switch a.Op {
	case expr.OpAdd:
		return Symbolic(expr.Add(le, re)), nil
	case expr.OpSub:
		return Symbolic(expr.Sub(le, re)), nil
	case expr.OpMul:
		return Symbolic(expr.Mul(le, re)), nil
	case expr.OpDiv:
		return Symbolic(expr.Div(le, re)), nil
	default:
		return Value{}, fmt.Errorf("ctable: unknown arithmetic op %v", a.Op)
	}
}

// String implements Scalar.
func (a Arith) String() string {
	return "(" + a.Left.String() + " " + a.Op.String() + " " + a.Right.String() + ")"
}

// ScalarFunc adapts an arbitrary function as a Scalar; used by generators
// and tests for computed columns beyond basic arithmetic.
type ScalarFunc struct {
	Name string
	Fn   func(t *Tuple) (Value, error)
}

// Resolve implements Scalar.
func (s ScalarFunc) Resolve(t *Tuple) (Value, error) { return s.Fn(t) }

// String implements Scalar.
func (s ScalarFunc) String() string { return s.Name + "(...)" }

// ---------------------------------------------------------------------------
// Predicates

// PredOutcome is the tri-state result of evaluating a predicate against a
// tuple: definitely false (drop the tuple), definitely true (keep it
// unchanged), or symbolic (keep it, conjoining constraint atoms onto its
// local condition — the CTYPE rewrite of §V-A).
type PredOutcome int

// Predicate outcomes.
const (
	PredFalse PredOutcome = iota
	PredTrue
	PredSymbolic
)

// Predicate evaluates a selection predicate against a tuple.
type Predicate interface {
	Eval(t *Tuple) (PredOutcome, cond.Clause, error)
	String() string
}

// Compare is the structured comparison predicate Left op Right. If both
// sides resolve deterministically the comparison is decided on the spot;
// if either side is symbolic, the comparison becomes a constraint atom.
type Compare struct {
	Op          cond.CmpOp
	Left, Right Scalar
}

// Eval implements Predicate.
func (c Compare) Eval(t *Tuple) (PredOutcome, cond.Clause, error) {
	l, err := c.Left.Resolve(t)
	if err != nil {
		return PredFalse, nil, err
	}
	r, err := c.Right.Resolve(t)
	if err != nil {
		return PredFalse, nil, err
	}
	// NULL comparisons are false (SQL three-valued logic collapsed to
	// two-valued, which is all the engine needs).
	if l.IsNull() || r.IsNull() {
		return PredFalse, nil, nil
	}
	if !l.IsSymbolic() && !r.IsSymbolic() {
		cmp, ok := l.Compare(r)
		if !ok {
			return PredFalse, nil, fmt.Errorf("ctable: incomparable values %s and %s", l, r)
		}
		if detHolds(c.Op, cmp) {
			return PredTrue, nil, nil
		}
		return PredFalse, nil, nil
	}
	le, ok := l.AsExpr()
	if !ok {
		return PredFalse, nil, fmt.Errorf("ctable: non-numeric symbolic comparison operand %s", l)
	}
	re, ok := r.AsExpr()
	if !ok {
		return PredFalse, nil, fmt.Errorf("ctable: non-numeric symbolic comparison operand %s", r)
	}
	return PredSymbolic, cond.Clause{cond.NewAtom(le, c.Op, re)}, nil
}

func detHolds(op cond.CmpOp, cmp int) bool {
	switch op {
	case cond.EQ:
		return cmp == 0
	case cond.NEQ:
		return cmp != 0
	case cond.LT:
		return cmp < 0
	case cond.LE:
		return cmp <= 0
	case cond.GT:
		return cmp > 0
	case cond.GE:
		return cmp >= 0
	default:
		return false
	}
}

// String implements Predicate.
func (c Compare) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// AndPred is a conjunction of predicates.
type AndPred []Predicate

// Eval implements Predicate: any false conjunct makes the row false; all
// symbolic atoms accumulate.
func (ps AndPred) Eval(t *Tuple) (PredOutcome, cond.Clause, error) {
	var atoms cond.Clause
	outcome := PredTrue
	for _, p := range ps {
		o, c, err := p.Eval(t)
		if err != nil {
			return PredFalse, nil, err
		}
		switch o {
		case PredFalse:
			return PredFalse, nil, nil
		case PredSymbolic:
			outcome = PredSymbolic
			atoms = append(atoms, c...)
		}
	}
	return outcome, atoms, nil
}

// String implements Predicate.
func (ps AndPred) String() string {
	out := ""
	for i, p := range ps {
		if i > 0 {
			out += " AND "
		}
		out += p.String()
	}
	return out
}

// PredFuncAdapter lifts a deterministic row function (e.g. a string LIKE
// filter) into a Predicate.
type PredFuncAdapter struct {
	Name string
	Fn   func(t *Tuple) (bool, error)
}

// Eval implements Predicate.
func (p PredFuncAdapter) Eval(t *Tuple) (PredOutcome, cond.Clause, error) {
	ok, err := p.Fn(t)
	if err != nil {
		return PredFalse, nil, err
	}
	if ok {
		return PredTrue, nil, nil
	}
	return PredFalse, nil, nil
}

// String implements Predicate.
func (p PredFuncAdapter) String() string { return p.Name }
