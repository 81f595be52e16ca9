package ctable

import (
	"math"
	"testing"
	"testing/quick"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

func normalVar(id uint64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
}

func TestValueBasics(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null not null")
	}
	f, ok := Int(42).AsFloat()
	if !ok || f != 42 {
		t.Fatal("Int AsFloat")
	}
	f, ok = Bool(true).AsFloat()
	if !ok || f != 1 {
		t.Fatal("Bool AsFloat")
	}
	if _, ok := String_("x").AsFloat(); ok {
		t.Fatal("string converted to float")
	}
	if !Float(1).Equal(Int(1)) {
		t.Fatal("numeric cross-kind equality failed")
	}
	if Float(1).Equal(String_("1")) {
		t.Fatal("float equals string")
	}
}

func TestSymbolicValueFolding(t *testing.T) {
	v := Symbolic(expr.Const(5))
	if v.Kind != KindFloat || v.F != 5 {
		t.Fatalf("constant expression should fold: %v", v)
	}
	x := normalVar(1)
	s := Symbolic(expr.NewVar(x))
	if !s.IsSymbolic() {
		t.Fatal("variable expression not symbolic")
	}
	if w := s.E.Eval(expr.Assignment{x.Key: 3}); w != 3 {
		t.Fatalf("symbolic cell at x=3 = %v", w)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Float(1), Float(2), -1},
		{Float(2), Float(2), 0},
		{Int(3), Float(2), 1},
		{String_("a"), String_("b"), -1},
		{Null(), Float(0), -1},
	}
	for _, c := range cases {
		got, ok := c.a.Compare(c.b)
		if !ok || got != c.want {
			t.Fatalf("Compare(%v, %v) = %d, %v", c.a, c.b, got, ok)
		}
	}
	if _, ok := Float(1).Compare(Symbolic(expr.NewVar(normalVar(1)))); ok {
		t.Fatal("symbolic comparison should not be deterministic")
	}
}

func TestScalarResolution(t *testing.T) {
	x := normalVar(1)
	tb := New("t", "a", "b")
	tb.MustAppend(NewTuple(Float(10), Symbolic(expr.NewVar(x))))
	tup := &tb.Tuples[0]

	v, err := Col(0).Resolve(tup)
	if err != nil || v.F != 10 {
		t.Fatalf("Col resolve: %v %v", v, err)
	}
	if _, err := Col(5).Resolve(tup); err == nil {
		t.Fatal("out-of-range column did not error")
	}
	// 2 * b is symbolic.
	a := Arith{Op: expr.OpMul, Left: LitFloat(2), Right: Col(1)}
	v, err = a.Resolve(tup)
	if err != nil || !v.IsSymbolic() {
		t.Fatalf("symbolic arith: %v %v", v, err)
	}
	got := v.E.Eval(expr.Assignment{x.Key: 4})
	if got != 8 {
		t.Fatalf("2*b at b=4: %v", got)
	}
	// a + 1 folds.
	a2 := Arith{Op: expr.OpAdd, Left: Col(0), Right: LitFloat(1)}
	v, err = a2.Resolve(tup)
	if err != nil || v.Kind != KindFloat || v.F != 11 {
		t.Fatalf("det arith: %v %v", v, err)
	}
	// string arithmetic errors.
	tb2 := New("t2", "s")
	tb2.MustAppend(NewTuple(String_("x")))
	a3 := Arith{Op: expr.OpAdd, Left: Col(0), Right: LitFloat(1)}
	if _, err := a3.Resolve(&tb2.Tuples[0]); err == nil {
		t.Fatal("string arithmetic should error")
	}
}

func TestComparePredicate(t *testing.T) {
	x := normalVar(1)
	tb := New("t", "name", "price")
	tb.MustAppend(NewTuple(String_("Joe"), Symbolic(expr.NewVar(x))))
	tup := &tb.Tuples[0]

	// Deterministic string comparison.
	o, _, err := Compare{Op: cond.EQ, Left: Col(0), Right: LitString("Joe")}.Eval(tup)
	if err != nil || o != PredTrue {
		t.Fatalf("det string compare: %v %v", o, err)
	}
	o, _, _ = Compare{Op: cond.EQ, Left: Col(0), Right: LitString("Bob")}.Eval(tup)
	if o != PredFalse {
		t.Fatal("mismatched string compared true")
	}
	// Symbolic comparison yields an atom.
	o, atoms, err := Compare{Op: cond.GE, Left: Col(1), Right: LitFloat(7)}.Eval(tup)
	if err != nil || o != PredSymbolic || len(atoms) != 1 {
		t.Fatalf("symbolic compare: %v %v %v", o, atoms, err)
	}
	if !atoms.Holds(expr.Assignment{x.Key: 8}) || atoms.Holds(expr.Assignment{x.Key: 6}) {
		t.Fatal("atom semantics wrong")
	}
	// NULL comparisons are false.
	tb2 := New("t2", "a")
	tb2.MustAppend(NewTuple(Null()))
	o, _, _ = Compare{Op: cond.EQ, Left: Col(0), Right: LitFloat(0)}.Eval(&tb2.Tuples[0])
	if o != PredFalse {
		t.Fatal("NULL comparison not false")
	}
}

// buildPaperExample constructs the running example of §1.1/§2.1:
// Order(Cust, ShipTo, Price) and Shipping(Dest, Duration).
func buildPaperExample() (*Table, *Table, map[string]*expr.Variable) {
	vars := map[string]*expr.Variable{
		"X1": {Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 100, 10), Name: "X1"},
		"X2": {Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 5, 2), Name: "X2"},
		"X3": {Key: expr.VarKey{ID: 3}, Dist: dist.MustInstance(dist.Normal{}, 200, 10), Name: "X3"},
		"X4": {Key: expr.VarKey{ID: 4}, Dist: dist.MustInstance(dist.Normal{}, 6, 2), Name: "X4"},
	}
	order := New("Order", "Cust", "ShipTo", "Price")
	order.MustAppend(NewTuple(String_("Joe"), String_("NY"), Symbolic(expr.NewVar(vars["X1"]))))
	order.MustAppend(NewTuple(String_("Bob"), String_("LA"), Symbolic(expr.NewVar(vars["X3"]))))
	shipping := New("Shipping", "Dest", "Duration")
	shipping.MustAppend(NewTuple(String_("NY"), Symbolic(expr.NewVar(vars["X2"]))))
	shipping.MustAppend(NewTuple(String_("LA"), Symbolic(expr.NewVar(vars["X4"]))))
	return order, shipping, vars
}

func TestPaperRunningExample(t *testing.T) {
	// pi_Price(sigma_{ShipTo=Dest}(sigma_{Cust='Joe'}(Order) x
	//          sigma_{Duration>=7}(Shipping)))
	order, shipping, vars := buildPaperExample()

	joe, err := Select(order, Compare{Op: cond.EQ, Left: Col(0), Right: LitString("Joe")})
	if err != nil {
		t.Fatal(err)
	}
	if joe.Len() != 1 {
		t.Fatalf("sigma_Cust='Joe' kept %d rows", joe.Len())
	}
	late, err := Select(shipping, Compare{Op: cond.GE, Left: Col(1), Right: LitFloat(7)})
	if err != nil {
		t.Fatal(err)
	}
	// Both shipping rows survive symbolically, with conditions X2>=7, X4>=7.
	if late.Len() != 2 {
		t.Fatalf("sigma_Duration>=7 kept %d rows", late.Len())
	}
	prod := Product(joe, late)
	if prod.Len() != 2 {
		t.Fatalf("product has %d rows", prod.Len())
	}
	joined, err := Select(prod, Compare{Op: cond.EQ, Left: Col(1), Right: Col(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Only the NY-NY pairing survives deterministically.
	if joined.Len() != 1 {
		t.Fatalf("join kept %d rows", joined.Len())
	}
	result, err := Project(joined, []string{"Price"}, []Scalar{Col(2)})
	if err != nil {
		t.Fatal(err)
	}
	// The result must be the c-table {| (X1, X2 >= 7) |} of Example 3.1.
	tup := result.Tuples[0]
	if !tup.Values[0].IsSymbolic() {
		t.Fatal("price should be symbolic")
	}
	if len(tup.Cond.Clauses) != 1 || len(tup.Cond.Clauses[0]) != 1 {
		t.Fatalf("condition shape wrong: %s", tup.Cond)
	}
	a := tup.Cond.Clauses[0][0]
	set := map[expr.VarKey]*expr.Variable{}
	a.CollectVars(set)
	if _, ok := set[vars["X2"].Key]; !ok || len(set) != 1 {
		t.Fatalf("condition should mention only X2: %s", a)
	}
}

func TestSelectDropsInconsistent(t *testing.T) {
	y := normalVar(1)
	tb := New("t", "v")
	tup := NewTuple(Float(1))
	tup.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(5))})
	tb.MustAppend(tup)
	// Adding v<3 to a row conditioned on Y>5 is fine; adding Y<3 kills it.
	out, err := Select(tb, Compare{Op: cond.LT, Left: ScalarVar(y), Right: LitFloat(3)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("inconsistent row survived: %s", out)
	}
}

// ScalarVar adapts a bare variable as a Scalar for tests.
func ScalarVar(v *expr.Variable) Scalar {
	return ScalarFunc{Name: v.String(), Fn: func(*Tuple) (Value, error) {
		return Symbolic(expr.NewVar(v)), nil
	}}
}

func TestDistinctCoalescesToDNF(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	tb := New("t", "v")
	t1 := NewTuple(Float(1))
	t1.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0))})
	t2 := NewTuple(Float(1))
	t2.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(0))})
	t3 := NewTuple(Float(2))
	tb.MustAppend(t1)
	tb.MustAppend(t2)
	tb.MustAppend(t3)
	d := Distinct(tb)
	if d.Len() != 2 {
		t.Fatalf("distinct kept %d rows", d.Len())
	}
	if len(d.Tuples[0].Cond.Clauses) != 2 {
		t.Fatalf("coalesced condition has %d clauses", len(d.Tuples[0].Cond.Clauses))
	}
	// Semantics: the merged condition is the OR.
	asn := expr.Assignment{x.Key: 1, y.Key: -1}
	if !d.Tuples[0].Cond.Holds(asn) {
		t.Fatal("OR semantics lost")
	}
}

func TestUnionAndArity(t *testing.T) {
	a := New("a", "x")
	b := New("b", "x")
	a.MustAppend(NewTuple(Float(1)))
	b.MustAppend(NewTuple(Float(2)))
	u, err := Union(a, b)
	if err != nil || u.Len() != 2 {
		t.Fatalf("union: %v len %d", err, u.Len())
	}
	c := New("c", "x", "y")
	if _, err := Union(a, c); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDifferenceSemantics(t *testing.T) {
	// R - S where S's matching row has condition phi: survivors carry
	// NOT phi (Fig. 1).
	x := normalVar(1)
	r := New("r", "v")
	r.MustAppend(NewTuple(Float(1)))
	r.MustAppend(NewTuple(Float(2)))
	s := New("s", "v")
	ts := NewTuple(Float(1))
	ts.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0))})
	s.MustAppend(ts)

	d, err := Difference(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 {
		t.Fatalf("difference has %d rows", d.Len())
	}
	// Row v=1 must now hold exactly when NOT (x > 0).
	var row1 *Tuple
	for i := range d.Tuples {
		if f, _ := d.Tuples[i].Values[0].AsFloat(); f == 1 {
			row1 = &d.Tuples[i]
		}
	}
	if row1 == nil {
		t.Fatal("row v=1 missing")
	}
	if row1.Cond.Holds(expr.Assignment{x.Key: 1}) {
		t.Fatal("row should be absent when x>0")
	}
	if !row1.Cond.Holds(expr.Assignment{x.Key: -1}) {
		t.Fatal("row should be present when x<=0")
	}
}

func TestNotInvolution(t *testing.T) {
	// Property: Not(Not(c)) is semantically c on random single-var DNFs.
	x := normalVar(1)
	mk := func(th float64, op cond.CmpOp) cond.Condition {
		return cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(x), op, expr.Const(th))})
	}
	f := func(a, b, v float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(v) {
			return true
		}
		d := mk(a, cond.GT).Or(mk(b, cond.LE))
		nn := Not(Not(d))
		asn := expr.Assignment{x.Key: v}
		return nn.Holds(asn) == d.Holds(asn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBy(t *testing.T) {
	tb := New("t", "k", "v")
	tb.MustAppend(NewTuple(String_("a"), Float(1)))
	tb.MustAppend(NewTuple(String_("b"), Float(2)))
	tb.MustAppend(NewTuple(String_("a"), Float(3)))
	groups, err := GroupBy(tb, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups", len(groups))
	}
	if len(groups[0].Rows) != 2 || groups[0].Key[0].S != "a" {
		t.Fatalf("group a wrong: %+v", groups[0])
	}
	// Grouping by a symbolic column must fail.
	tb2 := New("t2", "k")
	tb2.MustAppend(NewTuple(Symbolic(expr.NewVar(normalVar(1)))))
	if _, err := GroupBy(tb2, []int{0}); err == nil {
		t.Fatal("symbolic group key accepted")
	}
}

func TestAppendArity(t *testing.T) {
	tb := New("t", "a", "b")
	if err := tb.Append(NewTuple(Float(1))); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestVarsOf(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	tb := New("t", "v")
	tup := NewTuple(Symbolic(expr.NewVar(x)))
	tup.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(0))})
	tb.MustAppend(tup)
	vars := VarsOf(tb)
	if len(vars) != 2 {
		t.Fatalf("VarsOf found %d vars", len(vars))
	}
}

func TestTupleIsDeterministic(t *testing.T) {
	if !NewTuple(Float(1)).IsDeterministic() {
		t.Fatal("plain tuple not deterministic")
	}
	sym := NewTuple(Symbolic(expr.NewVar(normalVar(1))))
	if sym.IsDeterministic() {
		t.Fatal("symbolic tuple reported deterministic")
	}
}
