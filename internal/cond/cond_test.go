package cond

import (
	"math"
	"testing"
	"testing/quick"

	"pip/internal/dist"
	"pip/internal/expr"
)

func normalVar(id uint64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
}

func discreteVar(id uint64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.DiscreteUniform{}, 0, 9)}
}

func expVar(id uint64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Exponential{}, 1)}
}

func atom(l expr.Expr, op CmpOp, r expr.Expr) Atom { return NewAtom(l, op, r) }

func TestAtomHolds(t *testing.T) {
	x := normalVar(1)
	a := atom(expr.NewVar(x), GE, expr.Const(7))
	if !a.Holds(expr.Assignment{x.Key: 8}) {
		t.Fatal("8 >= 7 should hold")
	}
	if a.Holds(expr.Assignment{x.Key: 6}) {
		t.Fatal("6 >= 7 should not hold")
	}
}

func TestAtomNegate(t *testing.T) {
	x := normalVar(1)
	ops := []struct{ op, neg CmpOp }{
		{EQ, NEQ}, {NEQ, EQ}, {LT, GE}, {LE, GT}, {GT, LE}, {GE, LT},
	}
	for _, c := range ops {
		a := atom(expr.NewVar(x), c.op, expr.Const(1))
		if a.Negate().Op != c.neg {
			t.Fatalf("negate(%v) = %v, want %v", c.op, a.Negate().Op, c.neg)
		}
	}
	// Property: an atom and its negation never agree.
	a := atom(expr.NewVar(x), LT, expr.Const(0.5))
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		asn := expr.Assignment{x.Key: v}
		return a.Holds(asn) != a.Negate().Holds(asn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClauseAndSimplification(t *testing.T) {
	x := normalVar(1)
	c, ok := TrueClause().And(atom(expr.Const(1), LT, expr.Const(2)))
	if !ok || len(c) != 0 {
		t.Fatal("trivially true atom should be dropped")
	}
	_, ok = TrueClause().And(atom(expr.Const(2), LT, expr.Const(1)))
	if ok {
		t.Fatal("trivially false atom should fail the clause")
	}
	c, ok = TrueClause().And(atom(expr.NewVar(x), GT, expr.Const(0)))
	if !ok || len(c) != 1 {
		t.Fatal("symbolic atom should be kept")
	}
}

func TestClauseHolds(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.NewVar(x), GT, expr.Const(1)),
		atom(expr.NewVar(y), LT, expr.Const(5)),
	}
	if !c.Holds(expr.Assignment{x.Key: 2, y.Key: 3}) {
		t.Fatal("satisfying assignment rejected")
	}
	if c.Holds(expr.Assignment{x.Key: 0, y.Key: 3}) {
		t.Fatal("violating assignment accepted")
	}
	if !TrueClause().Holds(nil) {
		t.Fatal("TRUE clause should hold")
	}
}

func TestConditionDNF(t *testing.T) {
	x := normalVar(1)
	a := FromClause(Clause{atom(expr.NewVar(x), GT, expr.Const(5))})
	b := FromClause(Clause{atom(expr.NewVar(x), LT, expr.Const(-5))})
	d := a.Or(b)
	if len(d.Clauses) != 2 {
		t.Fatalf("Or should have 2 clauses, got %d", len(d.Clauses))
	}
	if !d.Holds(expr.Assignment{x.Key: 6}) || !d.Holds(expr.Assignment{x.Key: -6}) {
		t.Fatal("disjunction lost a branch")
	}
	if d.Holds(expr.Assignment{x.Key: 0}) {
		t.Fatal("disjunction accepted excluded point")
	}
}

func TestConditionAndDistributes(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	d1 := FromClause(Clause{atom(expr.NewVar(x), GT, expr.Const(0))}).
		Or(FromClause(Clause{atom(expr.NewVar(x), LT, expr.Const(-1))}))
	d2 := FromClause(Clause{atom(expr.NewVar(y), GT, expr.Const(0))})
	d := d1.And(d2)
	if len(d.Clauses) != 2 {
		t.Fatalf("distribution should give 2 clauses, got %d", len(d.Clauses))
	}
	// Property: And is semantically intersection.
	f := func(vx, vy float64) bool {
		if math.IsNaN(vx) || math.IsNaN(vy) {
			return true
		}
		asn := expr.Assignment{x.Key: vx, y.Key: vy}
		return d.Holds(asn) == (d1.Holds(asn) && d2.Holds(asn))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegateToDNF(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.NewVar(x), GT, expr.Const(0)),
		atom(expr.NewVar(y), LE, expr.Const(2)),
	}
	n := c.NegateToDNF()
	f := func(vx, vy float64) bool {
		if math.IsNaN(vx) || math.IsNaN(vy) {
			return true
		}
		asn := expr.Assignment{x.Key: vx, y.Key: vy}
		return n.Holds(asn) == !c.Holds(asn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if !TrueClause().NegateToDNF().IsFalse() {
		t.Fatal("NOT TRUE should be FALSE")
	}
}

func TestTrueFalseConditions(t *testing.T) {
	if !TrueCondition().IsTrue() || TrueCondition().IsFalse() {
		t.Fatal("TrueCondition broken")
	}
	if FalseCondition().IsTrue() || !FalseCondition().IsFalse() {
		t.Fatal("FalseCondition broken")
	}
	if FalseCondition().Holds(nil) {
		t.Fatal("FALSE held")
	}
	if !TrueCondition().Holds(nil) {
		t.Fatal("TRUE did not hold")
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{0, 10}
	b := Interval{5, 20}
	got := a.Intersect(b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Fatalf("intersect = %v", got)
	}
	if !a.Contains(0) || !a.Contains(10) || a.Contains(-0.1) {
		t.Fatal("Contains broken")
	}
	if (Interval{3, 2}).Empty() == false {
		t.Fatal("Empty broken")
	}
	if FullInterval().Bounded() {
		t.Fatal("full interval should be unbounded")
	}
	if !(Interval{0, math.Inf(1)}).Bounded() {
		t.Fatal("half-bounded interval should report Bounded")
	}
}

// --- Algorithm 3.2 ---

func TestConsistencyDeterministicAtoms(t *testing.T) {
	res := CheckConsistency(Clause{atom(expr.Const(1), GT, expr.Const(2))})
	if res.Verdict != Inconsistent {
		t.Fatalf("1 > 2: %v", res.Verdict)
	}
}

func TestConsistencyDiscreteContradiction(t *testing.T) {
	x := discreteVar(1)
	c := Clause{
		atom(expr.NewVar(x), EQ, expr.Const(1)),
		atom(expr.NewVar(x), EQ, expr.Const(2)),
	}
	if res := CheckConsistency(c); res.Verdict != Inconsistent {
		t.Fatalf("X=1 AND X=2: %v", res.Verdict)
	}
	// Same constant twice is fine.
	c2 := Clause{
		atom(expr.NewVar(x), EQ, expr.Const(1)),
		atom(expr.NewVar(x), EQ, expr.Const(1)),
	}
	if res := CheckConsistency(c2); res.Verdict == Inconsistent {
		t.Fatal("X=1 AND X=1 flagged inconsistent")
	}
}

func TestConsistencyContinuousEquality(t *testing.T) {
	y := normalVar(1)
	c := Clause{atom(expr.NewVar(y), EQ, expr.Const(3))}
	// Paper §III-C item 3: zero mass, treat as inconsistent.
	if res := CheckConsistency(c); res.Verdict != Inconsistent {
		t.Fatalf("continuous equality: %v", res.Verdict)
	}
}

func TestConsistencyIntervalContradiction(t *testing.T) {
	y := normalVar(1)
	c := Clause{
		atom(expr.NewVar(y), GT, expr.Const(5)),
		atom(expr.NewVar(y), LT, expr.Const(3)),
	}
	if res := CheckConsistency(c); res.Verdict != Inconsistent {
		t.Fatalf("Y>5 AND Y<3: %v", res.Verdict)
	}
}

func TestConsistencyBoundsPropagation(t *testing.T) {
	y := normalVar(1)
	c := Clause{
		atom(expr.NewVar(y), GT, expr.Const(-3)),
		atom(expr.NewVar(y), LT, expr.Const(2)),
	}
	res := CheckConsistency(c)
	if res.Verdict != Consistent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	iv := res.Bounds.Get(y.Key)
	if iv.Lo != -3 || iv.Hi != 2 {
		t.Fatalf("bounds %v", iv)
	}
}

func TestConsistencyTransitivePropagation(t *testing.T) {
	// X > Y and Y > 3 implies X > 3 after a propagation round.
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.NewVar(x), GT, expr.NewVar(y)),
		atom(expr.NewVar(y), GT, expr.Const(3)),
	}
	res := CheckConsistency(c)
	if res.Verdict != Consistent {
		t.Fatalf("verdict %v", res.Verdict)
	}
	if iv := res.Bounds.Get(x.Key); iv.Lo < 3-1e-9 {
		t.Fatalf("X bounds %v; expected Lo >= 3", iv)
	}
	if iv := res.Bounds.Get(y.Key); iv.Lo != 3 {
		t.Fatalf("Y bounds %v", iv)
	}
}

func TestConsistencyChainContradiction(t *testing.T) {
	// X > Y, Y > X is unsatisfiable but needs the linear tightener on both.
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.NewVar(x), GT, expr.Add(expr.NewVar(y), expr.Const(1))),
		atom(expr.NewVar(y), GT, expr.Add(expr.NewVar(x), expr.Const(1))),
	}
	res := CheckConsistency(c)
	// The pure interval tightener cannot refute this without finite seeds
	// (both intervals stay infinite), so the check may come back
	// weakly consistent — but it must not claim strong consistency if it
	// skipped anything, and must never claim Inconsistent wrongly on the
	// satisfiable variant below.
	if res.Verdict == Inconsistent {
		t.Log("tightener refuted the cyclic chain (stronger than required)")
	}
	sat := Clause{
		atom(expr.NewVar(x), GT, expr.Add(expr.NewVar(y), expr.Const(1))),
		atom(expr.NewVar(y), GT, expr.Const(0)),
	}
	if CheckConsistency(sat).Verdict == Inconsistent {
		t.Fatal("satisfiable chain flagged inconsistent")
	}
}

func TestConsistencySupportSeeding(t *testing.T) {
	// Exponential has support [0, inf); Y < -1 is inconsistent with it.
	y := expVar(1)
	c := Clause{atom(expr.NewVar(y), LT, expr.Const(-1))}
	if res := CheckConsistency(c); res.Verdict != Inconsistent {
		t.Fatalf("Exponential < -1: %v", res.Verdict)
	}
}

func TestConsistencyNonLinearSkipped(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.Mul(expr.NewVar(x), expr.NewVar(y)), GT, expr.Const(0)),
	}
	res := CheckConsistency(c)
	if res.Verdict != WeaklyConsistent {
		t.Fatalf("non-linear atom should downgrade to weak: %v", res.Verdict)
	}
}

func TestConsistencyLinearCombination(t *testing.T) {
	// 2X + 3Y >= 12, X <= 0, Y <= 0 is inconsistent.
	x, y := normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.Add(expr.Mul(expr.Const(2), expr.NewVar(x)), expr.Mul(expr.Const(3), expr.NewVar(y))), GE, expr.Const(12)),
		atom(expr.NewVar(x), LE, expr.Const(0)),
		atom(expr.NewVar(y), LE, expr.Const(0)),
	}
	if res := CheckConsistency(c); res.Verdict != Inconsistent {
		t.Fatalf("verdict %v, bounds %v", res.Verdict, res.Bounds)
	}
}

func TestConsistencyNeverRejectsSatisfiable(t *testing.T) {
	// Property: clauses generated with a known satisfying point are never
	// declared Inconsistent.
	x, y := normalVar(1), normalVar(2)
	f := func(vx, vy, m1, m2 float64) bool {
		if math.IsNaN(vx) || math.IsNaN(vy) || math.IsNaN(m1) || math.IsNaN(m2) {
			return true
		}
		if math.Abs(vx) > 1e6 || math.Abs(vy) > 1e6 || math.Abs(m1) > 1e6 || math.Abs(m2) > 1e6 {
			return true
		}
		// Build atoms that (vx, vy) satisfies by construction.
		c := Clause{
			atom(expr.NewVar(x), GE, expr.Const(vx-math.Abs(m1))),
			atom(expr.NewVar(x), LE, expr.Const(vx+1)),
			atom(expr.NewVar(y), LE, expr.Const(vy+math.Abs(m2))),
			atom(expr.Add(expr.NewVar(x), expr.NewVar(y)), LE, expr.Const(vx+vy)),
		}
		res := CheckConsistency(c)
		return res.Verdict != Inconsistent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- Independence partitioning ---

func TestPartitionIndependentGroups(t *testing.T) {
	// The paper's example (§IV-A-c): (Y1 > 4) AND (Y1*Y2 > Y3) AND (A < 6)
	// gives two minimal independent subsets.
	y1, y2, y3, a := normalVar(1), normalVar(2), normalVar(3), normalVar(4)
	c := Clause{
		atom(expr.NewVar(y1), GT, expr.Const(4)),
		atom(expr.Mul(expr.NewVar(y1), expr.NewVar(y2)), GT, expr.NewVar(y3)),
		atom(expr.NewVar(a), LT, expr.Const(6)),
	}
	groups := Partition(c, nil)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[0].Atoms) != 2 || len(groups[0].Keys) != 3 {
		t.Fatalf("group 0: %d atoms, %d keys", len(groups[0].Atoms), len(groups[0].Keys))
	}
	if len(groups[1].Atoms) != 1 || len(groups[1].Keys) != 1 {
		t.Fatalf("group 1: %d atoms, %d keys", len(groups[1].Atoms), len(groups[1].Keys))
	}
}

func TestPartitionExtraVariables(t *testing.T) {
	x, y := normalVar(1), normalVar(2)
	c := Clause{atom(expr.NewVar(x), GT, expr.Const(0))}
	groups := Partition(c, []*expr.Variable{y})
	if len(groups) != 2 {
		t.Fatalf("extra variable should have its own group; got %d", len(groups))
	}
}

func TestPartitionMultivariateLinking(t *testing.T) {
	// Components of the same multivariate variable must share a group even
	// when no atom joins them.
	l, _ := dist.CholeskyFromCovariance([][]float64{{1, 0}, {0, 1}})
	inst := dist.MustInstance(dist.MVNormal{}, dist.MVNormalParams([]float64{0, 0}, l)...)
	v0 := &expr.Variable{Key: expr.VarKey{ID: 7, Subscript: 0}, Dist: inst}
	v1 := &expr.Variable{Key: expr.VarKey{ID: 7, Subscript: 1}, Dist: inst}
	c := Clause{
		atom(expr.NewVar(v0), GT, expr.Const(0)),
		atom(expr.NewVar(v1), LT, expr.Const(1)),
	}
	groups := Partition(c, nil)
	if len(groups) != 1 {
		t.Fatalf("multivariate components split into %d groups", len(groups))
	}
}

func TestPartitionDeterministicOrder(t *testing.T) {
	x, y, z := normalVar(3), normalVar(1), normalVar(2)
	c := Clause{
		atom(expr.NewVar(x), GT, expr.Const(0)),
		atom(expr.NewVar(y), GT, expr.Const(0)),
		atom(expr.NewVar(z), GT, expr.Const(0)),
	}
	g1 := Partition(c, nil)
	g2 := Partition(c, nil)
	if len(g1) != 3 || len(g2) != 3 {
		t.Fatalf("want 3 groups, got %d/%d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i].Keys[0] != g2[i].Keys[0] {
			t.Fatal("partition order is not deterministic")
		}
	}
	if g1[0].Keys[0].ID != 1 || g1[1].Keys[0].ID != 2 || g1[2].Keys[0].ID != 3 {
		t.Fatal("groups not sorted by smallest key")
	}
}

func TestStringRendering(t *testing.T) {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1), Name: "Y"}
	c := Clause{atom(expr.NewVar(x), GE, expr.Const(7))}
	if got := c.String(); got != "Y >= 7" {
		t.Fatalf("clause string %q", got)
	}
	if got := TrueClause().String(); got != "TRUE" {
		t.Fatalf("true clause string %q", got)
	}
	if got := FalseCondition().String(); got != "FALSE" {
		t.Fatalf("false condition string %q", got)
	}
	d := FromClause(c).Or(FromClause(Clause{atom(expr.NewVar(x), LT, expr.Const(0))}))
	if got := d.String(); got != "Y >= 7 OR Y < 0" {
		t.Fatalf("DNF string %q", got)
	}
}
