// Package expr implements PIP's equation datatype (paper §III-B): flattened
// parse trees of arithmetic expressions whose leaves are random variables or
// constants. Because an equation itself describes a (composite) random
// variable, equations and random variables are used interchangeably
// throughout the system.
//
// The package also provides the linear normal form extraction used by the
// consistency checker's tighten1 routine, variable collection for
// independence partitioning, and constant folding.
package expr

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"pip/internal/dist"
	"pip/internal/prng"
)

// VarKey identifies one scalar random variable: the unique variable id plus
// a subscript selecting a component of a multivariate distribution
// (subscript 0 for univariate variables).
type VarKey struct {
	ID        uint64
	Subscript int
}

// String renders the key as X<id> or X<id>[sub].
func (k VarKey) String() string {
	if k.Subscript == 0 {
		return fmt.Sprintf("X%d", k.ID)
	}
	return fmt.Sprintf("X%d[%d]", k.ID, k.Subscript)
}

// Less orders keys by (ID, Subscript) for deterministic iteration.
func (k VarKey) Less(o VarKey) bool {
	if k.ID != o.ID {
		return k.ID < o.ID
	}
	return k.Subscript < o.Subscript
}

// Compare is Less as a three-way comparison, for slices.SortFunc and
// slices.BinarySearchFunc.
func (k VarKey) Compare(o VarKey) int {
	if c := cmp.Compare(k.ID, o.ID); c != 0 {
		return c
	}
	return cmp.Compare(k.Subscript, o.Subscript)
}

// Variable is a scalar random variable: a unique identifier, a subscript
// (for multivariate distributions) and a parametrized distribution instance
// (paper §III-B). The same Variable value may appear at many points in a
// database; the identifier guarantees the sampling process generates
// consistent values within a given sample.
type Variable struct {
	Key  VarKey
	Dist dist.Instance
	// Name is an optional human-readable label used by String output;
	// it has no semantic effect.
	Name string
}

// String renders the variable's label (or key) for display.
func (v *Variable) String() string {
	if v.Name != "" {
		if v.Key.Subscript != 0 {
			return fmt.Sprintf("%s[%d]", v.Name, v.Key.Subscript)
		}
		return v.Name
	}
	return v.Key.String()
}

// Assignment maps scalar variables to concrete values; it identifies one
// possible world (restricted to the variables of interest).
type Assignment map[VarKey]float64

// SampleVariable draws a value for v that is a pure function of
// (worldSeed, sampleIdx, v.Key): the variable id and subscript are part of
// the PRNG seed, so every occurrence of the variable sees the same value.
// Multivariate components are drawn jointly from the seed of subscript 0 so
// correlations survive.
func SampleVariable(v *Variable, worldSeed, sampleIdx uint64) float64 {
	if mv, ok := v.Dist.Class.(dist.Multivariater); ok {
		r := prng.NewKeyed(worldSeed, sampleIdx, v.Key.ID, 0)
		vec := mv.GenerateJoint(v.Dist.Params, r)
		if v.Key.Subscript < 0 || v.Key.Subscript >= len(vec) {
			return math.NaN()
		}
		return vec[v.Key.Subscript]
	}
	r := prng.NewKeyed(worldSeed, sampleIdx, v.Key.ID, uint64(v.Key.Subscript))
	return v.Dist.Generate(r)
}

// Op enumerates the arithmetic operators of the equation datatype.
type Op int

// Arithmetic operators. The implementation is limited to simple algebraic
// operators so that all variable expressions are polynomial (paper §III-C),
// which keeps consistency checking tractable; Div is permitted but marks the
// expression non-polynomial when a variable occurs in the divisor.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
)

// String renders the operator symbol.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// Expr is a node of an equation tree. Implementations are Const, Var, Bin
// and Neg. Expr values are immutable after construction and safe for
// concurrent use.
type Expr interface {
	// Eval evaluates the expression under the given variable assignment.
	// Unassigned variables evaluate to NaN, which poisons the result.
	Eval(a Assignment) float64
	// CollectVars adds every variable occurring in the expression to set,
	// keyed by VarKey.
	CollectVars(set map[VarKey]*Variable)
	// Degree returns the polynomial degree of the expression in its random
	// variables, or -1 if the expression is not polynomial (division by an
	// expression containing variables).
	Degree() int
	// String renders the expression in infix form.
	String() string
}

// Const is a constant leaf.
type Const float64

// Eval implements Expr.
func (c Const) Eval(Assignment) float64 { return float64(c) }

// CollectVars implements Expr.
func (c Const) CollectVars(map[VarKey]*Variable) {}

// Degree implements Expr.
func (c Const) Degree() int { return 0 }

// String implements Expr.
func (c Const) String() string {
	return strings.TrimSuffix(fmt.Sprintf("%g", float64(c)), ".0")
}

// Var is a random-variable leaf.
type Var struct {
	V *Variable
}

// NewVar wraps a variable as an expression leaf.
func NewVar(v *Variable) Var { return Var{V: v} }

// Eval implements Expr.
func (v Var) Eval(a Assignment) float64 {
	if val, ok := a[v.V.Key]; ok {
		return val
	}
	return math.NaN()
}

// CollectVars implements Expr.
func (v Var) CollectVars(set map[VarKey]*Variable) { set[v.V.Key] = v.V }

// Degree implements Expr.
func (v Var) Degree() int { return 1 }

// String implements Expr.
func (v Var) String() string { return v.V.String() }

// Bin is a binary arithmetic node.
type Bin struct {
	Op          Op
	Left, Right Expr
}

// Eval implements Expr.
func (b Bin) Eval(a Assignment) float64 { return b.Op.apply(b.Left.Eval(a), b.Right.Eval(a)) }

// apply returns l op r, NaN for an unknown operator.
func (o Op) apply(l, r float64) float64 {
	switch o {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		return l / r
	default:
		return math.NaN()
	}
}

// CollectVars implements Expr.
func (b Bin) CollectVars(set map[VarKey]*Variable) {
	b.Left.CollectVars(set)
	b.Right.CollectVars(set)
}

// Degree implements Expr.
func (b Bin) Degree() int { return BinDegree(b.Op, b.Left.Degree(), b.Right.Degree()) }

// BinDegree is the degree of l op r given the degrees of its operands, -1
// for an operand or a result that is not polynomial.
func BinDegree(op Op, l, r int) int {
	if l < 0 || r < 0 {
		return -1
	}
	switch op {
	case OpAdd, OpSub:
		return max(l, r)
	case OpMul:
		return l + r
	case OpDiv:
		if r > 0 {
			return -1 // variable in divisor: not polynomial
		}
		return l
	default:
		return -1
	}
}

// String implements Expr.
func (b Bin) String() string {
	return "(" + b.Left.String() + " " + b.Op.String() + " " + b.Right.String() + ")"
}

// Neg is arithmetic negation.
type Neg struct {
	X Expr
}

// Eval implements Expr.
func (n Neg) Eval(a Assignment) float64 { return -n.X.Eval(a) }

// CollectVars implements Expr.
func (n Neg) CollectVars(set map[VarKey]*Variable) { n.X.CollectVars(set) }

// Degree implements Expr.
func (n Neg) Degree() int { return n.X.Degree() }

// String implements Expr.
func (n Neg) String() string { return "-" + n.X.String() }

// Add returns l + r with constant folding.
func Add(l, r Expr) Expr { return Fold(exprBuilder{}, OpAdd, l, r) }

// Sub returns l - r with constant folding.
func Sub(l, r Expr) Expr { return Fold(exprBuilder{}, OpSub, l, r) }

// Mul returns l * r with constant folding.
func Mul(l, r Expr) Expr { return Fold(exprBuilder{}, OpMul, l, r) }

// Div returns l / r with constant folding.
func Div(l, r Expr) Expr { return Fold(exprBuilder{}, OpDiv, l, r) }

// Negate returns -x with constant folding.
func Negate(x Expr) Expr {
	if c, ok := x.(Const); ok {
		return Const(-c)
	}
	return Neg{x}
}

// Builder makes the nodes of an equation kept as values of type N, for
// Fold.
type Builder[N any] interface {
	// Const reports whether n is a constant, and its value.
	Const(n N) (float64, bool)
	// NewConst makes a constant node.
	NewConst(c float64) N
	// NewBin makes the node l op r.
	NewBin(op Op, l, r N) N
}

// Fold builds l op r with local constant folding and identity
// simplifications: two constants fold to one; x + 0, 0 + x, x − 0, x · 1,
// 1 · x and x / 1 are x; a product with 0 is 0. It is the one copy of these
// rules: Add, Sub, Mul and Div fold Exprs with it, and a c-table scalar
// resolved without building an Expr (ctable.Resolved) folds its nodes with
// it.
func Fold[N any, B Builder[N]](b B, op Op, l, r N) N {
	lc, lok := b.Const(l)
	rc, rok := b.Const(r)
	if lok && rok {
		return b.NewConst(op.apply(lc, rc))
	}
	switch op {
	case OpAdd:
		if lok && lc == 0 {
			return r
		}
		if rok && rc == 0 {
			return l
		}
	case OpSub:
		if rok && rc == 0 {
			return l
		}
	case OpMul:
		if lok && lc == 1 {
			return r
		}
		if rok && rc == 1 {
			return l
		}
		if (lok && lc == 0) || (rok && rc == 0) {
			return b.NewConst(0)
		}
	case OpDiv:
		if rok && rc == 1 {
			return l
		}
	}
	return b.NewBin(op, l, r)
}

// exprBuilder is the Builder of Exprs.
type exprBuilder struct{}

// Const implements Builder.
func (exprBuilder) Const(e Expr) (float64, bool) {
	c, ok := e.(Const)
	return float64(c), ok
}

// NewConst implements Builder.
func (exprBuilder) NewConst(c float64) Expr { return Const(c) }

// NewBin implements Builder.
func (exprBuilder) NewBin(op Op, l, r Expr) Expr { return Bin{op, l, r} }

// Vars returns the sorted variable keys of e along with a lookup map.
func Vars(e Expr) ([]VarKey, map[VarKey]*Variable) {
	set := map[VarKey]*Variable{}
	e.CollectVars(set)
	keys := make([]VarKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, VarKey.Compare)
	return keys, set
}

// IsDeterministic reports whether e contains no random variables. The four
// node types are walked in place; any other Expr is asked for its variables.
func IsDeterministic(e Expr) bool {
	switch t := e.(type) {
	case Const:
		return true
	case Var:
		return false
	case Bin:
		return IsDeterministic(t.Left) && IsDeterministic(t.Right)
	case Neg:
		return IsDeterministic(t.X)
	}
	set := map[VarKey]*Variable{}
	e.CollectVars(set)
	return len(set) == 0
}

// Term is one variable's term C·V of a linear form.
type Term struct {
	Key VarKey
	V   *Variable
	C   float64
}

// LinearForm is an expression in the normal form
// c0 + sum_i C_i * X_i used by tighten1 (Algorithm 3.2): a constant term
// plus one term per scalar variable, sorted by key, none with coefficient 0.
type LinearForm struct {
	Constant float64
	Terms    []Term
}

// Linearize extracts the linear normal form of e. ok is false if e is not
// linear in its random variables (degree > 1 or non-polynomial). Each
// key's coefficient is accumulated in tree-walk order.
func Linearize(e Expr) (LinearForm, bool) {
	// Most forms have one or two variables; four slots keep Insert from
	// growing the slice.
	lf := LinearForm{Terms: make([]Term, 0, 4)}
	if !LinearizeTree(ExprTree{}, e, &lf) {
		return LinearForm{}, false
	}
	return lf, true
}

// LinearizeTree is Linearize over any Tree: it writes root's linear normal
// form into lf, reusing the backing array of lf.Terms.
func LinearizeTree[N any, T Tree[N]](t T, root N, lf *LinearForm) bool {
	lf.Constant, lf.Terms = 0, lf.Terms[:0]
	if !linearize(t, root, 1, lf) {
		return false
	}
	// Drop zero coefficients introduced by cancellation.
	lf.Terms = slices.DeleteFunc(lf.Terms, func(t Term) bool { return t.C == 0 })
	return true
}

func linearize[N any, T Tree[N]](t T, n N, scale float64, lf *LinearForm) bool {
	switch x := t.Node(n); x.Kind {
	case NodeConst:
		lf.Constant += scale * x.C
		return true
	case NodeVar:
		i, found := slices.BinarySearchFunc(lf.Terms, x.V.Key, func(x Term, k VarKey) int { return x.Key.Compare(k) })
		if found {
			lf.Terms[i].C += scale
			lf.Terms[i].V = x.V
		} else {
			lf.Terms = slices.Insert(lf.Terms, i, Term{Key: x.V.Key, V: x.V, C: scale})
		}
		return true
	case NodeNeg:
		return linearize(t, x.L, -scale, lf)
	case NodeBin:
		switch x.Op {
		case OpAdd:
			return linearize(t, x.L, scale, lf) && linearize(t, x.R, scale, lf)
		case OpSub:
			return linearize(t, x.L, scale, lf) && linearize(t, x.R, -scale, lf)
		case OpMul:
			if t.Degree(x.L) == 0 {
				return linearize(t, x.R, scale*t.Value(x.L), lf)
			}
			if t.Degree(x.R) == 0 {
				return linearize(t, x.L, scale*t.Value(x.R), lf)
			}
			return false
		case OpDiv:
			if t.Degree(x.R) == 0 {
				d := t.Value(x.R)
				if d == 0 {
					return false
				}
				return linearize(t, x.L, scale/d, lf)
			}
			return false
		}
	}
	return false
}

// NodeKind is the shape of one equation node as a Tree reports it.
type NodeKind uint8

// Node kinds: the four Expr implementations, and NodeOther for any other.
const (
	NodeOther NodeKind = iota
	NodeConst
	NodeVar
	NodeNeg
	NodeBin
)

// Node is one equation node as a Tree reports it: its constant
// (NodeConst), its variable (NodeVar), its operand as L (NodeNeg), or its
// operator and operands (NodeBin).
type Node[N any] struct {
	Kind NodeKind
	C    float64
	V    *Variable
	Op   Op
	L, R N
}

// Tree is a read-only view of an equation whose nodes are values of type
// N: an Expr itself (ExprTree), or an equation kept in another form, such
// as a c-table scalar resolved against a row without building Bin nodes.
// Linearize and the sampler's closed-form means walk a Tree, so one walk
// serves every form, and the node travels as a type parameter, unboxed.
type Tree[N any] interface {
	// Node returns n's shape.
	Node(n N) Node[N]
	// Degree is Expr.Degree of n.
	Degree(n N) int
	// Value is n's value when Degree(n) is 0.
	Value(n N) float64
}

// ExprTree is the Tree view of an Expr.
type ExprTree struct{}

// Node implements Tree.
func (ExprTree) Node(e Expr) Node[Expr] {
	switch t := e.(type) {
	case Const:
		return Node[Expr]{Kind: NodeConst, C: float64(t)}
	case Var:
		return Node[Expr]{Kind: NodeVar, V: t.V}
	case Neg:
		return Node[Expr]{Kind: NodeNeg, L: t.X}
	case Bin:
		return Node[Expr]{Kind: NodeBin, Op: t.Op, L: t.Left, R: t.Right}
	}
	return Node[Expr]{}
}

// Degree implements Tree.
func (ExprTree) Degree(e Expr) int { return e.Degree() }

// Value implements Tree.
func (ExprTree) Value(e Expr) float64 { return e.Eval(nil) }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
