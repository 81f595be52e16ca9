package cond

import (
	"math"
	"testing"
	"testing/quick"

	"pip/internal/expr"
)

// TestCompiledConditionMatchesTreeWalk is the differential contract of the
// compiled clause: over every comparison operator, linear and nonlinear
// sides, NaN/Inf values and a variable left unassigned (a NaN slot), the
// compiled Holds/AtomHolds verdicts equal Clause.Holds/Atom.Holds.
func TestCompiledConditionMatchesTreeWalk(t *testing.T) {
	x, y, z := normalVar(1), normalVar(2), expVar(3)
	table := expr.NewSlotTable([]expr.VarKey{z.Key, x.Key, y.Key})
	xy := expr.Mul(expr.NewVar(x), expr.NewVar(y))
	c1 := Clause{
		atom(expr.NewVar(x), GT, expr.NewVar(y)),
		atom(xy, LE, expr.Const(4)),
		atom(expr.Div(expr.NewVar(x), expr.NewVar(z)), NEQ, expr.Negate(expr.NewVar(y))),
	}
	c2 := Clause{
		atom(expr.Add(expr.NewVar(x), expr.NewVar(z)), LT, expr.Const(0)),
		atom(expr.NewVar(y), EQ, expr.NewVar(y)),
		atom(expr.Sub(xy, expr.NewVar(z)), GE, expr.Const(-1)),
	}
	d := Condition{Clauses: []Clause{c1, c2}}
	dp, err := CompileCondition(d, table)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := CompileClause(c1, table)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, table.Len())
	stack := make([]float64, dp.MaxStack())
	check := func(vx, vy, vz float64, dropZ bool) bool {
		asn := expr.Assignment{x.Key: vx, y.Key: vy, z.Key: vz}
		vals[0], vals[1], vals[2] = vz, vx, vy
		if dropZ {
			delete(asn, z.Key)
			vals[0] = math.NaN()
		}
		if dp.Holds(vals, stack) != d.Holds(asn) || cp.Holds(vals, stack) != c1.Holds(asn) {
			return false
		}
		for i, a := range c1 {
			if cp.AtomHolds(i, vals, stack) != a.Holds(asn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)} {
		if !check(v, 1, 2, false) || !check(1, v, 2, false) || !check(1, 2, v, true) {
			t.Fatalf("special value %v: compiled verdict differs from the tree walk", v)
		}
	}
}

// TestCompiledConditionEdges pins the degenerate shapes: the empty clause
// holds, the clause-less condition does not, and a variable outside the slot
// table is a compile error.
func TestCompiledConditionEdges(t *testing.T) {
	x := normalVar(1)
	table := expr.NewSlotTable([]expr.VarKey{x.Key})
	tp, err := CompileCondition(TrueCondition(), table)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Holds(nil, nil) || tp.MaxStack() != 0 {
		t.Fatal("compiled TRUE must hold with no scratch")
	}
	fp, err := CompileCondition(FalseCondition(), table)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Holds(nil, nil) {
		t.Fatal("compiled FALSE holds")
	}
	other := normalVar(2)
	if _, err := CompileClause(Clause{atom(expr.NewVar(other), GT, expr.Const(0))}, table); err == nil {
		t.Fatal("atom over a variable outside the slot table compiled")
	}
}
