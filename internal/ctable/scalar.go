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

// Resolved is a scalar resolved against one row as Resolve resolves it,
// except that the result is not built as a Value: a number, a NULL or the
// nodes a symbolic result's equation would have after expr's constant
// folding go into an arena that is reused from row to row. It is the
// expr.Tree the aggregate fold reads closed-form moments from, so such a
// row costs no allocation.
type Resolved struct {
	nodes []resNode
	vars  []*expr.Variable
}

// resNode is one arena node: a number c, a NULL, a variable (vars[l]), or
// l op r with l and r indexing the arena. It holds no pointer, so filling
// the arena costs no write barrier.
type resNode struct {
	kind expr.NodeKind // NodeOther for a NULL
	op   expr.Op
	deg  int32
	l, r int32
	c    float64
}

// Resolve resolves sc against t and returns the root of the result: a NULL
// (IsNull), a number (degree 0, whose Value it is), or an equation. ok is
// false when sc.Resolve would fail, or when sc or one of its cells is beyond
// what r holds (a string, a ScalarFunc, or a symbolic cell other than a
// single variable); sc.Resolve then gives the answer.
func (r *Resolved) Resolve(sc Scalar, t *Tuple) (root int32, ok bool) {
	r.nodes, r.vars = r.nodes[:0], r.vars[:0]
	return r.resolve(sc, t)
}

// IsNull reports whether node n is a NULL.
func (r *Resolved) IsNull(n int32) bool { return r.nodes[n].kind == expr.NodeOther }

func (r *Resolved) resolve(sc Scalar, t *Tuple) (int32, bool) {
	var v *Value
	switch s := sc.(type) {
	case Col:
		if int(s) < 0 || int(s) >= len(t.Values) {
			return -1, false
		}
		v = &t.Values[s]
	case Lit:
		v = &s.V
	case Arith:
		return r.arith(s, t)
	default:
		return -1, false
	}
	switch v.Kind {
	case KindNull:
		return r.push(resNode{kind: expr.NodeOther}), true
	case KindExpr:
		x, isVar := v.E.(expr.Var)
		if !isVar {
			return -1, false
		}
		r.vars = append(r.vars, x.V)
		return r.push(resNode{kind: expr.NodeVar, deg: 1, l: int32(len(r.vars) - 1)}), true
	}
	f, ok := v.AsFloat()
	if !ok {
		return -1, false
	}
	return r.push(resNode{kind: expr.NodeConst, c: f}), true
}

// arith is Arith.Resolve over the arena: a NULL operand makes a NULL, and
// anything else folds by expr.Fold, as Resolve's float arithmetic and
// equation building do.
func (r *Resolved) arith(a Arith, t *Tuple) (int32, bool) {
	l, ok := r.resolve(a.Left, t)
	if !ok {
		return -1, false
	}
	rt, ok := r.resolve(a.Right, t)
	if !ok {
		return -1, false
	}
	switch {
	case r.IsNull(l):
		return l, true
	case r.IsNull(rt):
		return rt, true
	case a.Op < expr.OpAdd || a.Op > expr.OpDiv:
		return -1, false
	}
	return expr.Fold(resBuilder{r}, a.Op, l, rt), true
}

// resBuilder builds arena nodes for expr.Fold.
type resBuilder struct{ r *Resolved }

// Const implements expr.Builder.
func (b resBuilder) Const(n int32) (float64, bool) {
	x := &b.r.nodes[n]
	return x.c, x.kind == expr.NodeConst
}

// NewConst implements expr.Builder.
func (b resBuilder) NewConst(c float64) int32 {
	return b.r.push(resNode{kind: expr.NodeConst, c: c})
}

// NewBin implements expr.Builder.
func (b resBuilder) NewBin(op expr.Op, l, rt int32) int32 {
	deg := int32(expr.BinDegree(op, int(b.r.nodes[l].deg), int(b.r.nodes[rt].deg)))
	return b.r.push(resNode{kind: expr.NodeBin, op: op, deg: deg, l: l, r: rt})
}

func (r *Resolved) push(n resNode) int32 {
	r.nodes = append(r.nodes, n)
	return int32(len(r.nodes) - 1)
}

// Node implements expr.Tree.
func (r *Resolved) Node(n int32) expr.Node[int32] {
	x := &r.nodes[n]
	switch x.kind {
	case expr.NodeVar:
		return expr.Node[int32]{Kind: expr.NodeVar, V: r.vars[x.l]}
	case expr.NodeConst:
		return expr.Node[int32]{Kind: expr.NodeConst, C: x.c}
	}
	return expr.Node[int32]{Kind: x.kind, Op: x.op, L: x.l, R: x.r}
}

// Degree implements expr.Tree.
func (r *Resolved) Degree(n int32) int { return int(r.nodes[n].deg) }

// Value implements expr.Tree: a node of degree 0 is a number.
func (r *Resolved) Value(n int32) float64 { return r.nodes[n].c }

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
