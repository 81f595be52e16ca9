package ctable

import (
	"math"
	"testing"

	"pip/internal/expr"
)

// TestArithDeterministicBits holds Arith's float path for deterministic
// operands to the bits the equation path gives — a Bin of two Consts
// folded and unwrapped by Symbolic — over every pair of Int, Float and Bool
// operands and all four operators, edge values included: 0/0, x/0, ±Inf,
// NaN, −0, 2⁵³+1 and 1e308·10.
func TestArithDeterministicBits(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-3), Int(1<<53 + 1), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-2.25), Float(0.1),
		Float(10), Float(1e308), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN()),
		Float(1<<53 + 1), Float(5e-324),
		Bool(true), Bool(false),
	}
	ops := []struct {
		op   expr.Op
		fold func(l, r expr.Expr) expr.Expr
	}{
		{expr.OpAdd, expr.Add}, {expr.OpSub, expr.Sub}, {expr.OpMul, expr.Mul}, {expr.OpDiv, expr.Div},
	}
	for _, o := range ops {
		for _, l := range vals {
			for _, r := range vals {
				got, err := Arith{Op: o.op, Left: Lit{l}, Right: Lit{r}}.Resolve(nil)
				if err != nil {
					t.Fatalf("%s %s %s: %v", l, o.op, r, err)
				}
				le, _ := l.AsExpr()
				re, _ := r.AsExpr()
				want := Symbolic(o.fold(le, re))
				if got.Kind != KindFloat || want.Kind != KindFloat || math.Float64bits(got.F) != math.Float64bits(want.F) {
					t.Errorf("%s %s %s = %#v (bits %x), equation path %#v (bits %x)",
						l, o.op, r, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
				}
			}
		}
	}
}

// TestArithDeterministicOperands keeps what a non-numeric or NULL operand
// does: a String is the same error as before, on whichever side comes
// first, and NULL yields NULL.
func TestArithDeterministicOperands(t *testing.T) {
	cases := []struct {
		l, r    Value
		want    Value
		wantErr string
	}{
		{String_("a"), Float(1), Value{}, "ctable: non-numeric operand a in arithmetic"},
		{Int(2), String_("b"), Value{}, "ctable: non-numeric operand b in arithmetic"},
		{String_("a"), String_("b"), Value{}, "ctable: non-numeric operand a in arithmetic"},
		{Null(), Float(1), Null(), ""},
		{Bool(true), Null(), Null(), ""},
		{Null(), String_("b"), Null(), ""},
	}
	for _, c := range cases {
		for _, op := range []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv} {
			got, err := Arith{Op: op, Left: Lit{c.l}, Right: Lit{c.r}}.Resolve(nil)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Errorf("%s %s %s: error %v, want %q", c.l, op, c.r, err, c.wantErr)
				}
				continue
			}
			if err != nil || got != c.want {
				t.Errorf("%s %s %s = %#v, %v; want %#v", c.l, op, c.r, got, err, c.want)
			}
		}
	}
}
