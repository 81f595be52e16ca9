package expr

import (
	"math"
	"testing"

	"pip/internal/dist"
	"pip/internal/prng"
)

// progVars builds a small pool of variables for program tests.
func progVars(n int) []*Variable {
	vars := make([]*Variable, n)
	for i := range vars {
		vars[i] = &Variable{
			Key:  VarKey{ID: uint64(i + 1), Subscript: i % 2},
			Dist: dist.MustInstance(dist.Normal{}, 0, 1),
		}
	}
	return vars
}

// randTree generates a deterministic pseudorandom expression tree over the
// variable pool: all four operators, negation, plain and special-value
// constants (NaN, ±Inf, ±0) and repeated variables.
func randTree(r *prng.Rand, vars []*Variable, depth int) Expr {
	if depth <= 0 || r.Uint64()%4 == 0 {
		switch r.Uint64() % 8 {
		case 0:
			return Const(math.NaN())
		case 1:
			return Const(math.Inf(1))
		case 2:
			return Const(math.Inf(-1))
		case 3:
			return Const(math.Copysign(0, -1))
		case 4, 5:
			return Const(r.Float64()*200 - 100)
		default:
			return NewVar(vars[int(r.Uint64()%uint64(len(vars)))])
		}
	}
	if r.Uint64()%8 == 0 {
		return Neg{X: randTree(r, vars, depth-1)}
	}
	return Bin{
		Op:    Op(r.Uint64() % 4),
		Left:  randTree(r, vars, depth-1),
		Right: randTree(r, vars, depth-1),
	}
}

// gather copies an assignment into the program's slot order; unassigned
// variables become NaN slots, exactly as Var.Eval reports them.
func gather(p *Program, a Assignment, vals []float64) {
	for s, k := range p.Keys() {
		if v, ok := a[k]; ok {
			vals[s] = v
		} else {
			vals[s] = math.NaN()
		}
	}
}

// randAssignment draws values for the pool, leaving some variables
// deliberately unassigned (Var.Eval reports those as NaN; a NaN slot must
// agree).
func randAssignment(r *prng.Rand, vars []*Variable) Assignment {
	a := Assignment{}
	for _, v := range vars {
		switch r.Uint64() % 4 {
		case 0:
			// unassigned
		case 1:
			a[v.Key] = math.Inf(1)
		default:
			a[v.Key] = r.Float64()*20 - 10
		}
	}
	return a
}

// sameBits reports float equality at the bit level, except that any NaN
// matches any NaN: IEEE 754 leaves propagated-NaN payloads unspecified, so
// two compilations of the same expression may legally differ there.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// assertProgramMatchesTree compiles e and checks the scalar and batch
// evaluation paths both reproduce the tree walk bit-for-bit under every
// assignment in asns (one assignment per sample index for the batch path).
func assertProgramMatchesTree(t *testing.T, e Expr, asns []Assignment) {
	t.Helper()
	p, err := Compile(e)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	n := len(asns)
	cols := make([][]float64, p.NumSlots())
	for s := range cols {
		cols[s] = make([]float64, n)
	}
	vals := make([]float64, p.NumSlots())
	stack := make([]float64, p.MaxStack())
	for i, a := range asns {
		want := e.Eval(a)
		gather(p, a, vals)
		if got := p.EvalSlots(vals, stack); !sameBits(got, want) {
			t.Fatalf("%s: EvalSlots %v (bits %x), tree %v (bits %x)",
				e, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for s := range cols {
			cols[s][i] = vals[s]
		}
	}
	out := make([]float64, n)
	bstack := make([]float64, p.MaxStack()*n)
	p.EvalBatch(cols, n, out, bstack)
	for i, a := range asns {
		want := e.Eval(a)
		if !sameBits(out[i], want) {
			t.Fatalf("%s: EvalBatch[%d] %v, tree %v", e, i, out[i], want)
		}
	}
}

// TestCompileProgramProperty is the property-based differential test:
// hundreds of random trees (all operators, negation, NaN/±Inf/−0 literals,
// shared and unassigned variables), each checked across a batch of random
// assignments — compiled evaluation must equal the tree walk bit-for-bit at
// every sample index, on both evaluation paths.
func TestCompileProgramProperty(t *testing.T) {
	vars := progVars(5)
	r := prng.New(0xC0FFEE)
	for iter := 0; iter < 300; iter++ {
		e := randTree(r, vars, 5)
		asns := make([]Assignment, 7)
		for i := range asns {
			asns[i] = randAssignment(r, vars)
		}
		assertProgramMatchesTree(t, e, asns)
	}
}

// TestCompileProgramFixed pins hand-picked shapes: constants only, a single
// variable, deep negation, division by zero, and an expression reusing one
// variable many times (one slot, many loads).
func TestCompileProgramFixed(t *testing.T) {
	vars := progVars(2)
	x, y := NewVar(vars[0]), NewVar(vars[1])
	cases := []Expr{
		Const(3.5),
		x,
		Neg{X: Neg{X: x}},
		Bin{OpDiv, x, Const(0)},
		Bin{OpDiv, Const(0), Const(0)},
		Bin{OpAdd, Bin{OpMul, x, x}, Bin{OpSub, x, y}},
		Bin{OpMul, Bin{OpAdd, x, Const(1)}, Neg{X: Bin{OpDiv, y, Const(3)}}},
	}
	asns := []Assignment{
		{},
		{vars[0].Key: 2, vars[1].Key: -7},
		{vars[0].Key: math.Inf(-1), vars[1].Key: 0},
	}
	for _, e := range cases {
		assertProgramMatchesTree(t, e, asns)
	}
}

// TestCompileSlotOrderDeterministic asserts the slot table is a pure
// function of the tree: slots follow first occurrence in postfix emission
// order, and recompilation reproduces them exactly.
func TestCompileSlotOrderDeterministic(t *testing.T) {
	vars := progVars(3)
	// y appears before x in evaluation order even though x has a lower id.
	e := Bin{OpAdd, Bin{OpMul, NewVar(vars[1]), NewVar(vars[0])}, NewVar(vars[2])}
	p1, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	want := []VarKey{vars[1].Key, vars[0].Key, vars[2].Key}
	if len(p1.Keys()) != len(want) {
		t.Fatalf("slots %v, want %v", p1.Keys(), want)
	}
	for i, k := range p1.Keys() {
		if k != want[i] {
			t.Fatalf("slot %d = %v, want %v", i, k, want[i])
		}
	}
	p2, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatalf("recompilation diverged:\n%s\nvs\n%s", p1, p2)
	}
}

// TestCompileSlotsUsesCallerTable asserts CompileSlots reads every variable
// from the slot its caller's table assigns (not from an order of its own),
// sizes NumSlots to the table, evaluates bit-identically to the tree walk,
// and rejects a variable the table does not number.
func TestCompileSlotsUsesCallerTable(t *testing.T) {
	vars := progVars(4)
	// Table order is unrelated to occurrence order, and numbers a variable
	// (vars[3]) the expression never mentions.
	table := NewSlotTable([]VarKey{vars[2].Key, vars[3].Key, vars[0].Key, vars[1].Key})
	e := Bin{OpSub, Bin{OpMul, NewVar(vars[1]), NewVar(vars[0])}, Neg{NewVar(vars[2])}}
	p, err := CompileSlots(e, table)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != table.Len() {
		t.Fatalf("NumSlots %d, want the table's %d", p.NumSlots(), table.Len())
	}
	a := Assignment{vars[0].Key: 3, vars[1].Key: -1.5, vars[2].Key: 0.25, vars[3].Key: 99}
	vals := make([]float64, table.Len())
	for k, v := range a {
		s, ok := table.Slot(k)
		if !ok {
			t.Fatalf("table lost %v", k)
		}
		vals[s] = v
	}
	if got, want := p.EvalSlots(vals, make([]float64, p.MaxStack())), e.Eval(a); !sameBits(got, want) {
		t.Fatalf("EvalSlots %v, tree %v", got, want)
	}
	small := NewSlotTable([]VarKey{vars[0].Key, vars[1].Key})
	if _, err := CompileSlots(e, small); err == nil {
		t.Fatal("a variable outside the slot table compiled")
	}
}

// TestCompileRejectsUnknown asserts unknown node and operator kinds are
// compile errors, never silent misevaluation.
func TestCompileRejectsUnknown(t *testing.T) {
	if _, err := Compile(unknownExpr{}); err == nil {
		t.Fatal("unknown node type compiled")
	}
	if _, err := Compile(Bin{Op: Op(99), Left: Const(1), Right: Const(2)}); err == nil {
		t.Fatal("unknown operator compiled")
	}
}

// unknownExpr is a foreign Expr implementation Compile must reject.
type unknownExpr struct{}

func (unknownExpr) Eval(Assignment) float64          { return 0 }
func (unknownExpr) CollectVars(map[VarKey]*Variable) {}
func (unknownExpr) Degree() int                      { return 0 }
func (unknownExpr) String() string                   { return "?" }

// decodeFuzzTree interprets fuzz bytes as tree-construction opcodes — a
// tiny stack machine so arbitrary inputs decode to arbitrary tree shapes.
func decodeFuzzTree(data []byte, vars []*Variable) Expr {
	var stack []Expr
	pop := func() Expr {
		if len(stack) == 0 {
			return Const(1)
		}
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	for i := 0; i < len(data) && len(stack) < 64; i++ {
		b := data[i]
		switch b % 10 {
		case 0, 1:
			stack = append(stack, Const(float64(int8(b))/4))
		case 2:
			special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
			stack = append(stack, Const(special[int(b/10)%len(special)]))
		case 3, 4:
			stack = append(stack, NewVar(vars[int(b)%len(vars)]))
		case 5, 6, 7, 8:
			r, l := pop(), pop()
			stack = append(stack, Bin{Op: Op(b % 4), Left: l, Right: r})
		case 9:
			stack = append(stack, Neg{X: pop()})
		}
	}
	e := pop()
	for len(stack) > 0 {
		e = Bin{Op: OpAdd, Left: pop(), Right: e}
	}
	return e
}

// FuzzCompileProgram decodes arbitrary bytes into an expression tree plus an
// assignment and requires compiled evaluation ≡ tree-walk evaluation,
// bit-for-bit, on the scalar and batch paths alike.
func FuzzCompileProgram(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 5})
	f.Add([]byte{2, 12, 22, 32, 3, 9, 6, 13, 7, 8})
	f.Add([]byte{0, 3, 5, 0, 3, 6, 7, 9, 8, 3, 3, 5, 2, 8})
	vars := progVars(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		e := decodeFuzzTree(data, vars)
		r := prng.New(prng.MixKey(uint64(len(data)) + 1))
		asns := make([]Assignment, 5)
		for i := range asns {
			asns[i] = randAssignment(r, vars)
		}
		assertProgramMatchesTree(t, e, asns)
	})
}
