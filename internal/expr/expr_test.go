package expr

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"pip/internal/dist"
)

func testVar(id uint64) *Variable {
	return &Variable{
		Key:  VarKey{ID: id},
		Dist: dist.MustInstance(dist.Normal{}, 0, 1),
	}
}

func TestConstEval(t *testing.T) {
	if got := Const(3.5).Eval(nil); got != 3.5 {
		t.Fatalf("Const eval = %v", got)
	}
	if Const(1).Degree() != 0 {
		t.Fatal("const degree != 0")
	}
}

func TestVarEval(t *testing.T) {
	v := testVar(1)
	e := NewVar(v)
	asn := Assignment{v.Key: 7}
	if got := e.Eval(asn); got != 7 {
		t.Fatalf("var eval = %v", got)
	}
	if !math.IsNaN(e.Eval(Assignment{})) {
		t.Fatal("unassigned variable should evaluate to NaN")
	}
}

func TestArithmeticEval(t *testing.T) {
	x, y := testVar(1), testVar(2)
	asn := Assignment{x.Key: 6, y.Key: 3}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Add(NewVar(x), NewVar(y)), 9},
		{Sub(NewVar(x), NewVar(y)), 3},
		{Mul(NewVar(x), NewVar(y)), 18},
		{Div(NewVar(x), NewVar(y)), 2},
		{Negate(NewVar(x)), -6},
		{Add(Mul(Const(2), NewVar(x)), Const(1)), 13},
	}
	for _, c := range cases {
		if got := c.e.Eval(asn); got != c.want {
			t.Fatalf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	if _, ok := Add(Const(2), Const(3)).(Const); !ok {
		t.Fatal("2+3 did not fold")
	}
	x := NewVar(testVar(1))
	if e := Add(x, Const(0)); e != Expr(x) {
		t.Fatalf("x+0 did not simplify: %s", e)
	}
	if e := Mul(x, Const(1)); e != Expr(x) {
		t.Fatalf("x*1 did not simplify: %s", e)
	}
	if c, ok := Mul(x, Const(0)).(Const); !ok || c != 0 {
		t.Fatal("x*0 did not fold to 0")
	}
	if c, ok := Negate(Const(4)).(Const); !ok || c != -4 {
		t.Fatal("-4 did not fold")
	}
}

func TestDegree(t *testing.T) {
	x, y := NewVar(testVar(1)), NewVar(testVar(2))
	cases := []struct {
		e    Expr
		want int
	}{
		{x, 1},
		{Add(x, y), 1},
		{Mul(x, y), 2},
		{Mul(Mul(x, x), x), 3},
		{Div(x, Const(2)), 1},
		{Div(Const(2), x), -1}, // variable in divisor: not polynomial
		{Div(Mul(x, y), y), -1},
	}
	for _, c := range cases {
		if got := c.e.Degree(); got != c.want {
			t.Fatalf("degree(%s) = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestCollectVars(t *testing.T) {
	x, y := testVar(1), testVar(2)
	e := Add(Mul(NewVar(x), NewVar(y)), NewVar(x))
	keys, vars := Vars(e)
	if len(keys) != 2 {
		t.Fatalf("got %d vars", len(keys))
	}
	if keys[0] != x.Key || keys[1] != y.Key {
		t.Fatalf("keys unsorted: %v", keys)
	}
	if vars[x.Key] != x {
		t.Fatal("variable pointer lost")
	}
}

func TestIsDeterministic(t *testing.T) {
	if !IsDeterministic(Add(Const(1), Const(2))) {
		t.Fatal("constant expression reported probabilistic")
	}
	if IsDeterministic(NewVar(testVar(1))) {
		t.Fatal("variable reported deterministic")
	}
}

func TestLinearize(t *testing.T) {
	x, y := testVar(1), testVar(2)
	// 2*x - 3*y + 4 + x => 3x - 3y + 4
	e := Add(Add(Sub(Mul(Const(2), NewVar(x)), Mul(Const(3), NewVar(y))), Const(4)), NewVar(x))
	lf, ok := Linearize(e)
	if !ok {
		t.Fatal("linearize failed")
	}
	if lf.Constant != 4 {
		t.Fatalf("constant %v", lf.Constant)
	}
	if coeff(lf, x.Key) != 3 || coeff(lf, y.Key) != -3 {
		t.Fatalf("terms %v", lf.Terms)
	}
}

func TestLinearizeDivByConst(t *testing.T) {
	x := testVar(1)
	lf, ok := Linearize(Div(NewVar(x), Const(4)))
	if !ok || coeff(lf, x.Key) != 0.25 {
		t.Fatalf("x/4: %v ok=%v", lf.Terms, ok)
	}
	if _, ok := Linearize(Div(Const(1), NewVar(x))); ok {
		t.Fatal("1/x should not linearize")
	}
}

func TestLinearizeRejectsQuadratic(t *testing.T) {
	x := NewVar(testVar(1))
	if _, ok := Linearize(Mul(x, x)); ok {
		t.Fatal("x*x should not linearize")
	}
}

func TestLinearizeCancellation(t *testing.T) {
	x := testVar(1)
	// x - x => coefficient cancels to zero and is dropped.
	lf, ok := Linearize(Sub(NewVar(x), NewVar(x)))
	if !ok {
		t.Fatal("linearize failed")
	}
	if len(lf.Terms) != 0 {
		t.Fatalf("expected no terms, got %v", lf.Terms)
	}
}

func TestLinearizeAgreesWithEval(t *testing.T) {
	// Property: for random linear combos, the linear form evaluates to the
	// same value as the tree.
	x, y := testVar(1), testVar(2)
	f := func(a, b, c, vx, vy float64) bool {
		if anyBad(a, b, c, vx, vy) {
			return true
		}
		e := Add(Add(Mul(Const(a), NewVar(x)), Mul(Const(b), NewVar(y))), Const(c))
		lf, ok := Linearize(e)
		if !ok {
			return false
		}
		asn := Assignment{x.Key: vx, y.Key: vy}
		want := e.Eval(asn)
		got := lf.Constant + coeff(lf, x.Key)*vx + coeff(lf, y.Key)*vy
		return math.Abs(want-got) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// coeff returns k's coefficient in lf, 0 when lf has no term for k.
func coeff(lf LinearForm, k VarKey) float64 {
	for _, t := range lf.Terms {
		if t.Key == k {
			return t.C
		}
	}
	return 0
}

// mapLinearize is the map-based accumulation Linearize replaced: each key's
// coefficient summed into a map in tree-walk order, zeros deleted.
func mapLinearize(e Expr) (float64, map[VarKey]float64, bool) {
	c0, coeffs := 0.0, map[VarKey]float64{}
	var walk func(e Expr, scale float64) bool
	walk = func(e Expr, scale float64) bool {
		switch t := e.(type) {
		case Const:
			c0 += scale * float64(t)
			return true
		case Var:
			coeffs[t.V.Key] += scale
			return true
		case Neg:
			return walk(t.X, -scale)
		case Bin:
			switch t.Op {
			case OpAdd:
				return walk(t.Left, scale) && walk(t.Right, scale)
			case OpSub:
				return walk(t.Left, scale) && walk(t.Right, -scale)
			case OpMul:
				if IsDeterministic(t.Left) {
					return walk(t.Right, scale*t.Left.Eval(nil))
				}
				if IsDeterministic(t.Right) {
					return walk(t.Left, scale*t.Right.Eval(nil))
				}
			case OpDiv:
				if d := t.Right.Eval(nil); IsDeterministic(t.Right) && d != 0 {
					return walk(t.Left, scale/d)
				}
			}
		}
		return false
	}
	if !walk(e, 1) {
		return 0, nil, false
	}
	for k, c := range coeffs {
		if c == 0 {
			delete(coeffs, k)
		}
	}
	return c0, coeffs, true
}

// randLinearTree builds a random tree over the variables vs whose leaves
// repeat keys and whose constants cancel some terms exactly.
func randLinearTree(rng *rand.Rand, vs []*Variable, depth int) Expr {
	if depth == 0 || rng.IntN(4) == 0 {
		if rng.IntN(3) == 0 {
			return Const(float64(rng.IntN(7)-3) * []float64{1, 0.1, 0.7, 1.3}[rng.IntN(4)])
		}
		return NewVar(vs[rng.IntN(len(vs))])
	}
	l, r := randLinearTree(rng, vs, depth-1), randLinearTree(rng, vs, depth-1)
	switch rng.IntN(5) {
	case 0:
		return Bin{OpAdd, l, r}
	case 1:
		return Bin{OpSub, l, r}
	case 2:
		return Bin{OpMul, Const(rng.NormFloat64()), r}
	case 3:
		return Bin{OpDiv, l, Const(0.5 + rng.Float64())}
	default:
		return Neg{l}
	}
}

// TestLinearizeTermsMatchMapAccumulation: Linearize returns its terms in
// strictly increasing key order with no zero coefficient, and every
// coefficient and the constant have the bits the map accumulation gives.
func TestLinearizeTermsMatchMapAccumulation(t *testing.T) {
	vs := make([]*Variable, 6)
	for i := range vs {
		vs[i] = &Variable{Key: VarKey{ID: uint64(7 - i/2), Subscript: i % 2}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	}
	rng := rand.New(rand.NewPCG(35, 2))
	checked := 0
	for i := 0; i < 3000; i++ {
		e := randLinearTree(rng, vs, 5)
		lf, ok := Linearize(e)
		c0, want, wok := mapLinearize(e)
		if ok != wok {
			t.Fatalf("%v: Linearize ok=%v, map accumulation ok=%v", e, ok, wok)
		}
		if !ok {
			continue
		}
		checked++
		if math.Float64bits(lf.Constant) != math.Float64bits(c0) {
			t.Fatalf("%v: constant %v, want %v", e, lf.Constant, c0)
		}
		if len(lf.Terms) != len(want) {
			t.Fatalf("%v: %d terms, want %d", e, len(lf.Terms), len(want))
		}
		if !slices.IsSortedFunc(lf.Terms, func(a, b Term) int { return a.Key.Compare(b.Key) }) {
			t.Fatalf("%v: terms out of key order: %v", e, lf.Terms)
		}
		for j, tm := range lf.Terms {
			if j > 0 && lf.Terms[j-1].Key == tm.Key {
				t.Fatalf("%v: key %v repeated", e, tm.Key)
			}
			if tm.C == 0 {
				t.Fatalf("%v: zero term for %v", e, tm.Key)
			}
			if tm.V == nil || tm.V.Key != tm.Key {
				t.Fatalf("%v: term %v carries variable %v", e, tm.Key, tm.V)
			}
			if math.Float64bits(tm.C) != math.Float64bits(want[tm.Key]) {
				t.Fatalf("%v: coefficient of %v = %v, want %v", e, tm.Key, tm.C, want[tm.Key])
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d of 3000 random trees were linear", checked)
	}
}

// TestIsDeterministicAllocs: the walk over Const/Var/Bin/Neg allocates
// nothing.
func TestIsDeterministicAllocs(t *testing.T) {
	x := NewVar(testVar(1))
	var e Expr = Bin{OpAdd, Bin{OpMul, Const(2), Neg{Const(3)}}, Bin{OpDiv, x, Const(4)}}
	left := e.(Bin).Left
	if got := testing.AllocsPerRun(100, func() {
		if IsDeterministic(e) || !IsDeterministic(left) {
			t.Fatal("wrong verdict")
		}
	}); got != 0 {
		t.Fatalf("IsDeterministic allocated %v times per call", got)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
			return true
		}
	}
	return false
}

func TestSampleVariableConsistency(t *testing.T) {
	v := testVar(9)
	a := SampleVariable(v, 1, 5)
	b := SampleVariable(v, 1, 5)
	if a != b {
		t.Fatal("same (seed, sample) gave different values")
	}
	c := SampleVariable(v, 1, 6)
	if a == c {
		t.Fatal("different sample indices gave identical values")
	}
	d := SampleVariable(v, 2, 5)
	if a == d {
		t.Fatal("different world seeds gave identical values")
	}
}

func TestSampleVariableJoint(t *testing.T) {
	l, _ := dist.CholeskyFromCovariance([][]float64{{1, 0.9}, {0.9, 1}})
	params := dist.MVNormalParams([]float64{0, 0}, l)
	inst := dist.MustInstance(dist.MVNormal{}, params...)
	v0 := &Variable{Key: VarKey{ID: 7, Subscript: 0}, Dist: inst}
	v1 := &Variable{Key: VarKey{ID: 7, Subscript: 1}, Dist: inst}
	// Strong positive correlation must survive component-wise sampling.
	var sxy, sx, sy float64
	const n = 20000
	for i := uint64(0); i < n; i++ {
		a := SampleVariable(v0, 3, i)
		b := SampleVariable(v1, 3, i)
		sx += a
		sy += b
		sxy += a * b
	}
	cov := sxy/n - (sx/n)*(sy/n)
	if cov < 0.8 {
		t.Fatalf("joint correlation lost: cov = %v", cov)
	}
}

func TestVarKeyString(t *testing.T) {
	if got := (VarKey{ID: 3}).String(); got != "X3" {
		t.Fatalf("got %q", got)
	}
	if got := (VarKey{ID: 3, Subscript: 2}).String(); got != "X3[2]" {
		t.Fatalf("got %q", got)
	}
}

func TestExprString(t *testing.T) {
	x := &Variable{Key: VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1), Name: "Price"}
	e := Add(Mul(NewVar(x), Const(3)), Const(1))
	if got := e.String(); got != "((Price * 3) + 1)" {
		t.Fatalf("String() = %q", got)
	}
}
