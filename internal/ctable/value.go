// Package ctable implements probabilistic conditional tables (c-tables,
// paper §II) and the relational algebra of Fig. 1 on them.
//
// A c-table is a multiset of tuples, each carrying a local condition — a
// conjunction of atomic comparisons over random variables. Data fields hold
// constants or symbolic random-variable equations (the CTYPE/VarExp duality
// of Fig. 4). Relational operators manipulate conditions exactly as in
// Fig. 1: selection conjoins predicate atoms, product conjoins input
// conditions, distinct coalesces duplicate tuples into DNF, and difference
// negates.
package ctable

import (
	"fmt"
	"math"
	"strconv"

	"pip/internal/expr"
)

// Kind enumerates the runtime types a c-table cell can hold.
type Kind int

// Cell kinds. KindExpr marks a symbolic cell: a random-variable equation
// whose value varies across possible worlds.
const (
	KindNull Kind = iota
	KindFloat
	KindInt
	KindString
	KindBool
	KindExpr
)

// String names the value kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindExpr:
		return "expr"
	default:
		return "?"
	}
}

// Value is one c-table cell. The zero value is NULL.
type Value struct {
	Kind Kind
	F    float64
	I    int64
	S    string
	B    bool
	E    expr.Expr
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// String_ wraps a string. (Named with a trailing underscore to avoid
// colliding with the String method.)
func String_(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Symbolic wraps a random-variable equation. If the expression is actually
// constant it is folded to a float value.
func Symbolic(e expr.Expr) Value {
	if c, ok := e.(expr.Const); ok {
		return Float(float64(c))
	}
	return Value{Kind: KindExpr, E: e}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsSymbolic reports whether the value depends on random variables.
func (v Value) IsSymbolic() bool { return v.Kind == KindExpr }

// IsNumeric reports whether the value can participate in arithmetic.
func (v Value) IsNumeric() bool {
	switch v.Kind {
	case KindFloat, KindInt, KindExpr:
		return true
	default:
		return false
	}
}

// AsFloat returns the deterministic numeric value; ok is false for
// non-numeric or symbolic values.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindFloat:
		return v.F, true
	case KindInt:
		return float64(v.I), true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsExpr returns the value as an equation: symbolic values return their
// tree, deterministic numerics return a Const. ok is false for strings and
// NULL.
func (v Value) AsExpr() (expr.Expr, bool) {
	switch v.Kind {
	case KindExpr:
		return v.E, true
	case KindFloat:
		return expr.Const(v.F), true
	case KindInt:
		return expr.Const(float64(v.I)), true
	case KindBool:
		if v.B {
			return expr.Const(1), true
		}
		return expr.Const(0), true
	default:
		return nil, false
	}
}

// CollectVars adds the value's random variables (if any) to set.
func (v Value) CollectVars(set map[expr.VarKey]*expr.Variable) {
	if v.Kind == KindExpr {
		v.E.CollectVars(set)
	}
}

// Equal reports deterministic equality between two values. Symbolic values
// compare by syntactic identity of their equations (used by distinct);
// numerically equal int/float pairs are equal.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindExpr || o.Kind == KindExpr {
		if v.Kind != KindExpr || o.Kind != KindExpr {
			return false
		}
		return v.E.String() == o.E.String()
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindString:
		return v.S == o.S
	case KindBool:
		return v.B == o.B
	default:
		return false
	}
}

// Compare orders two deterministic values; symbolic values are not
// comparable deterministically and return ok=false. NULLs sort first.
func (v Value) Compare(o Value) (int, bool) {
	if v.Kind == KindExpr || o.Kind == KindExpr {
		return 0, false
	}
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == KindNull && o.Kind == KindNull:
			return 0, true
		case v.Kind == KindNull:
			return -1, true
		default:
			return 1, true
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		switch {
		case v.S < o.S:
			return -1, true
		case v.S > o.S:
			return 1, true
		default:
			return 0, true
		}
	}
	return 0, false
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			return strconv.FormatFloat(v.F, 'f', 1, 64)
		}
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindExpr:
		return v.E.String()
	default:
		return fmt.Sprintf("?%d", v.Kind)
	}
}

// AppendBinaryKey appends a compact binary key for v to dst and returns the
// extended slice. It is the engine's one key encoding — hash-join keys,
// GROUP BY groups and DISTINCT rows — and its equivalence classes are
// these: numerically equal int/float pairs share a key (both go through
// AsFloat), every NaN is canonicalized to one pattern, -0 stays distinct
// from +0, and a symbolic cell keys by its rendered equation. It does no
// float formatting. Keys are self-delimiting (kind tag plus fixed-width or
// length-prefixed payload), so multi-column keys concatenate without a
// separator.
func (v Value) AppendBinaryKey(dst []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(dst, 'n')
	case KindString:
		dst = append(dst, 's')
		dst = appendKeyLen(dst, len(v.S))
		return append(dst, v.S...)
	case KindBool:
		if v.B {
			return append(dst, 'b', 1)
		}
		return append(dst, 'b', 0)
	case KindExpr:
		s := v.E.String()
		dst = append(dst, 'e')
		dst = appendKeyLen(dst, len(s))
		return append(dst, s...)
	default:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if f != f {
			bits = 0x7FF8000000000000
		}
		return append(dst, 'f',
			byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
			byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
	}
}

// appendKeyLen appends a length prefix as a little-endian base-128 varint.
func appendKeyLen(dst []byte, n int) []byte {
	u := uint64(n)
	for u >= 0x80 {
		dst = append(dst, byte(u)|0x80)
		u >>= 7
	}
	return append(dst, byte(u))
}
