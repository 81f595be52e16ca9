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
func (b Bin) Eval(a Assignment) float64 {
	l := b.Left.Eval(a)
	r := b.Right.Eval(a)
	switch b.Op {
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
func (b Bin) Degree() int {
	l, r := b.Left.Degree(), b.Right.Degree()
	if l < 0 || r < 0 {
		return -1
	}
	switch b.Op {
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
func Add(l, r Expr) Expr { return fold(Bin{OpAdd, l, r}) }

// Sub returns l - r with constant folding.
func Sub(l, r Expr) Expr { return fold(Bin{OpSub, l, r}) }

// Mul returns l * r with constant folding.
func Mul(l, r Expr) Expr { return fold(Bin{OpMul, l, r}) }

// Div returns l / r with constant folding.
func Div(l, r Expr) Expr { return fold(Bin{OpDiv, l, r}) }

// Negate returns -x with constant folding.
func Negate(x Expr) Expr {
	if c, ok := x.(Const); ok {
		return Const(-c)
	}
	return Neg{x}
}

// fold applies local constant folding and identity simplifications.
func fold(b Bin) Expr {
	lc, lok := b.Left.(Const)
	rc, rok := b.Right.(Const)
	if lok && rok {
		return Const(b.Eval(nil))
	}
	switch b.Op {
	case OpAdd:
		if lok && lc == 0 {
			return b.Right
		}
		if rok && rc == 0 {
			return b.Left
		}
	case OpSub:
		if rok && rc == 0 {
			return b.Left
		}
	case OpMul:
		if lok && lc == 1 {
			return b.Right
		}
		if rok && rc == 1 {
			return b.Left
		}
		if (lok && lc == 0) || (rok && rc == 0) {
			return Const(0)
		}
	case OpDiv:
		if rok && rc == 1 {
			return b.Left
		}
	}
	return b
}

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
	if !linearize(e, 1, &lf) {
		return LinearForm{}, false
	}
	// Drop zero coefficients introduced by cancellation.
	lf.Terms = slices.DeleteFunc(lf.Terms, func(t Term) bool { return t.C == 0 })
	return lf, true
}

func linearize(e Expr, scale float64, lf *LinearForm) bool {
	switch t := e.(type) {
	case Const:
		lf.Constant += scale * float64(t)
		return true
	case Var:
		i, found := slices.BinarySearchFunc(lf.Terms, t.V.Key, func(x Term, k VarKey) int { return x.Key.Compare(k) })
		if found {
			lf.Terms[i].C += scale
			lf.Terms[i].V = t.V
		} else {
			lf.Terms = slices.Insert(lf.Terms, i, Term{Key: t.V.Key, V: t.V, C: scale})
		}
		return true
	case Neg:
		return linearize(t.X, -scale, lf)
	case Bin:
		switch t.Op {
		case OpAdd:
			return linearize(t.Left, scale, lf) && linearize(t.Right, scale, lf)
		case OpSub:
			return linearize(t.Left, scale, lf) && linearize(t.Right, -scale, lf)
		case OpMul:
			if IsDeterministic(t.Left) {
				return linearize(t.Right, scale*t.Left.Eval(nil), lf)
			}
			if IsDeterministic(t.Right) {
				return linearize(t.Left, scale*t.Right.Eval(nil), lf)
			}
			return false
		case OpDiv:
			if IsDeterministic(t.Right) {
				d := t.Right.Eval(nil)
				if d == 0 {
					return false
				}
				return linearize(t.Left, scale/d, lf)
			}
			return false
		}
	}
	return false
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
