package sql

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/sampler"
)

// The statements of the benchmark's expected_sum reads, over scanStreamDB's
// customers (tpch.DefaultScale(), generator seed 1, a Poisson order count
// per customer): nonlinear-sum folds ≈ 135 rows of a degree-2 argument into
// one group, point-read one row of a linear one.
var aggFoldStatements = []struct {
	name, text string
	keys       []int64
}{
	{"nonlinear-sum", "SELECT expected_sum(morders*morders + morders*price) FROM customers WHERE cust > ?", []int64{260, 290, 320, 350, 380, 410, 440, 470}},
	{"point-read", "SELECT expected_sum(morders * price) FROM customers WHERE cust = ?", []int64{1, 42, 137, 256, 311, 499}},
}

// BenchmarkAggregateFold is one in-process execution of each statement,
// parse and plan included, cycling through its keys.
func BenchmarkAggregateFold(b *testing.B) {
	db := scanStreamDB(b)
	ctx := context.Background()
	for _, st := range aggFoldStatements {
		b.Run(st.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExecContext(ctx, db, st.text, ctable.Int(st.keys[i%len(st.keys)])); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAggregateFoldAllocs holds the nonlinear-sum statement, planning
// included, under 200 allocations per execution: its ≈ 135 closed-form
// rows fold into the group's sum without a staged row, an equation or a
// monomial slice each.
func TestAggregateFoldAllocs(t *testing.T) {
	db := scanStreamDB(t)
	ctx := context.Background()
	st := aggFoldStatements[0]
	for _, key := range st.keys {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := ExecContext(ctx, db, st.text, ctable.Int(key)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("cust > %d: %.0f allocations per execution", key, allocs)
		if allocs >= 200 {
			t.Errorf("cust > %d: %.0f allocations per execution, want < 200", key, allocs)
		}
	}
}

// TestAggregateFoldDifferential holds the Aggregate operator's fold to the
// staged path it replaced (oracleAgg), bit for bit: the answers, the
// closed-form hits counted, and the error text. Seeded random tables mix
// numbers (0 and 1 among them, which trip expr's folding identities), NULL,
// Poisson, Normal, Uniform and MVNormal-component cells, variables shared
// across columns and rows, conditioned rows that must sample beside exact
// ones in one group, and now and then a string cell or a symbolic group
// key; seeded random argument trees divide by constants, by 0 and by
// variables. A quarter of the trials sample adaptively rather than with a
// fixed sample count.
func TestAggregateFoldDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 1937
	cfg.FixedSamples = 24
	cfg.Workers = 2
	db := core.NewDB(cfg)
	ctx := context.Background()
	hits := func() int64 { return db.Stats().Sampler.Snapshot().ClosedFormHits }
	var answered, failed int
	for trial := 0; trial < 100; trial++ {
		db.Register(foldTable(t, rng, db))
		// Every fourth trial samples adaptively, so a deferred row's
		// precision target — relaxed by the group's full row count, exact
		// rows included — is compared too.
		fixed := cfg.FixedSamples
		if trial%4 == 3 {
			fixed = 0
		}
		db.UpdateConfig(func(c *sampler.Config) { c.FixedSamples = fixed })
		for range 5 {
			q := foldQuery(rng)
			h0 := hits()
			got, gotErr := ExecContext(ctx, db, q)
			h1 := hits()
			want, wantErr := naiveExec(ctx, db, q)
			h2 := hits()
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("trial %d: %s\nfold error:   %v\nstaged error: %v", trial, q, gotErr, wantErr)
				}
				failed++
				continue
			}
			if d := bitDiff(got, want); d != "" {
				t.Fatalf("trial %d: %s\n%s\nfold:\n%s\nstaged:\n%s", trial, q, d, got, want)
			}
			if h1-h0 != h2-h1 {
				t.Fatalf("trial %d: %s\nfold counted %d closed-form hits, staged %d", trial, q, h1-h0, h2-h1)
			}
			answered++
		}
	}
	t.Logf("%d statements answered alike, %d failed alike", answered, failed)
	if answered < 250 || failed < 40 {
		t.Fatalf("%d answered, %d failed: the generator no longer covers both", answered, failed)
	}
}

// foldTable is a random table t (k, a, b, c) of up to 48 rows: k a small
// integer group key, a..c random cells over a pool of variables.
func foldTable(t *testing.T, rng *rand.Rand, db *core.DB) *ctable.Table {
	t.Helper()
	mk := func(class dist.Class, params ...float64) *expr.Variable {
		inst, err := dist.NewInstance(class, params...)
		if err != nil {
			t.Fatal(err)
		}
		return db.NewVariableFromInstance(inst, "")
	}
	pool := []*expr.Variable{
		mk(dist.Poisson{}, 0.5+4*rng.Float64()),
		mk(dist.Normal{}, 10*rng.NormFloat64(), 0.5+rng.Float64()),
		mk(dist.Uniform{}, -1, 1+3*rng.Float64()),
		mk(dist.Normal{}, 0, 1),
	}
	mv, err := db.CreateJointVariables(dist.MustInstance(dist.MVNormal{},
		dist.MVNormalParams([]float64{1, -2}, [][]float64{{1, 0}, {0.6, 0.8}})...), "")
	if err != nil {
		t.Fatal(err)
	}
	pool = append(pool, mv...)
	withStrings := rng.IntN(6) == 0 // a table with a few string cells
	symKey := rng.IntN(10) == 0     // a table with a symbolic group key
	cell := func() ctable.Value {
		switch r := rng.IntN(20); {
		case r < 2:
			return ctable.Null()
		case r < 4:
			return ctable.Float(float64(rng.IntN(2))) // 0 or 1
		case r < 5:
			return ctable.Int(int64(rng.IntN(7) - 3))
		case r < 9:
			// Magnitudes far apart, so the order of a sum shows in its bits.
			return ctable.Float(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(9)-3)))
		case r < 10 && withStrings:
			return ctable.String_("s")
		default:
			return ctable.Symbolic(expr.NewVar(pool[rng.IntN(len(pool))]))
		}
	}
	tb := ctable.New("t", "k", "a", "b", "c")
	for range rng.IntN(49) {
		k := ctable.Int(int64(rng.IntN(3)))
		if symKey && rng.IntN(10) == 0 {
			k = ctable.Symbolic(expr.NewVar(pool[1]))
		}
		c := cond.TrueCondition()
		if rng.IntN(6) == 0 {
			v := pool[rng.IntN(len(pool))]
			c = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(v), cond.GT, expr.Const(rng.NormFloat64()))})
		}
		tb.Tuples = append(tb.Tuples, ctable.Tuple{Values: []ctable.Value{k, cell(), cell(), cell()}, Cond: c})
	}
	return tb
}

// foldQuery is a random aggregate statement over t: one to three
// decomposable aggregates, sometimes a non-decomposable one beside them,
// grouped by k or not.
func foldQuery(rng *rand.Rand) string {
	var arg func(depth int) string
	arg = func(depth int) string {
		if depth == 0 || rng.IntN(3) == 0 {
			if rng.IntN(4) == 0 {
				return []string{"0", "1", "2", "0.5", "-3", "10"}[rng.IntN(6)]
			}
			return []string{"a", "b", "c"}[rng.IntN(3)]
		}
		return "(" + arg(depth-1) + " " + []string{"+", "-", "*", "/"}[rng.IntN(4)] + " " + arg(depth-1) + ")"
	}
	grouped := rng.IntN(3) > 0
	var targets []string
	if grouped {
		targets = append(targets, "k")
	}
	for range 1 + rng.IntN(3) {
		switch rng.IntN(3) {
		case 0:
			targets = append(targets, "expected_sum("+arg(3)+")")
		case 1:
			targets = append(targets, "expected_avg("+arg(3)+")")
		default:
			targets = append(targets, "expected_count(*)")
		}
	}
	if rng.IntN(5) == 0 {
		switch rng.IntN(3) {
		case 0:
			targets = append(targets, "expected_max("+arg(1)+")")
		case 1:
			targets = append(targets, "expected_stddev("+arg(1)+")")
		default:
			if grouped {
				targets = append(targets, "conf()")
			} else {
				targets = append(targets, "expected_variance("+arg(1)+")")
			}
		}
	}
	q := "SELECT " + strings.Join(targets, ", ") + " FROM t"
	if grouped {
		q += " GROUP BY k"
	}
	return q
}

// bitDiff describes the first cell where two results differ — in kind,
// in a float's bits, or otherwise — and is empty when they are identical.
func bitDiff(a, b *ctable.Table) string {
	if len(a.Tuples) != len(b.Tuples) {
		return fmt.Sprintf("%d rows against %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		for j, x := range a.Tuples[i].Values {
			y := b.Tuples[i].Values[j]
			same := x.Kind == y.Kind && x.String() == y.String()
			if x.Kind == ctable.KindFloat && y.Kind == ctable.KindFloat {
				same = math.Float64bits(x.F) == math.Float64bits(y.F)
			}
			if !same {
				return fmt.Sprintf("row %d column %d: %v (%#x) against %v (%#x)", i, j, x, math.Float64bits(x.F), y, math.Float64bits(y.F))
			}
		}
	}
	return ""
}

// TestAggregateErrorSelection pins which failure a statement reports when
// its rows fail in different ways, in the row-order contract's terms
// (docs/ARCHITECTURE.md): a target a row cannot resolve fails the statement
// first, in row order; then a symbolic group key; then the first group's
// first aggregate to fail, at its first failing row — even when that row
// came before the symbolic key.
func TestAggregateErrorSelection(t *testing.T) {
	db := core.NewDB(sampler.DefaultConfig())
	x, err := db.CreateVariable("Normal", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := ctable.New("t", "k", "v")
	tb.Tuples = []ctable.Tuple{
		ctable.NewTuple(ctable.Int(1), ctable.String_("s")),
		ctable.NewTuple(ctable.Symbolic(expr.NewVar(x)), ctable.Float(2)),
		ctable.NewTuple(ctable.Int(2), ctable.String_("r")),
	}
	db.Register(tb)
	for _, c := range []struct{ q, want string }{
		{"SELECT k, expected_sum(v) FROM t GROUP BY k", "ctable: cannot group by symbolic column k"},
		{"SELECT k, expected_count(*), expected_avg(v) FROM t GROUP BY k", "ctable: cannot group by symbolic column k"},
		{"SELECT k, expected_sum(v * 2) FROM t GROUP BY k", "ctable: non-numeric operand s in arithmetic"},
		{"SELECT k, expected_sum(k), expected_sum(v - 1) FROM t GROUP BY k", "ctable: non-numeric operand s in arithmetic"},
		{"SELECT expected_count(*), expected_sum(v) FROM t", "sampler: non-numeric aggregate target s"},
		{"SELECT expected_sum(k), expected_max(v) FROM t", "sampler: non-numeric max target s"},
	} {
		_, err := Exec(db, c.q)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.q, err, c.want)
		}
		if _, ref := naiveExec(context.Background(), db, c.q); ref == nil || ref.Error() != c.want {
			t.Errorf("%s: staged path error %v, want %s", c.q, ref, c.want)
		}
	}
}

// TestExpectedAvgSkipsNull holds expected_avg to SQL's AVG: a row whose
// argument is NULL adds nothing to the sum and is not counted, for a
// deterministic column and a symbolic one, folded or sampled.
func TestExpectedAvgSkipsNull(t *testing.T) {
	cfg := sampler.DefaultConfig()
	cfg.FixedSamples = 2000
	db := core.NewDB(cfg)
	x, err := db.CreateVariable("Normal", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := ctable.New("t", "k", "a", "x")
	tb.Tuples = []ctable.Tuple{
		ctable.NewTuple(ctable.Int(1), ctable.Float(2), ctable.Symbolic(expr.NewVar(x))),
		ctable.NewTuple(ctable.Int(1), ctable.Null(), ctable.Null()),
		ctable.NewTuple(ctable.Int(2), ctable.Null(), ctable.Null()),
		{Values: []ctable.Value{ctable.Int(3), ctable.Float(6), ctable.Symbolic(expr.NewVar(x))},
			Cond: cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(-100))})},
		ctable.NewTuple(ctable.Int(3), ctable.Null(), ctable.Null()),
	}
	db.Register(tb)
	out := mustExec(t, db, "SELECT k, expected_avg(a), expected_avg(x), expected_avg(a + x), expected_count(*) FROM t GROUP BY k")
	want := [][]float64{{1, 2, 5, 7, 2}, {2, math.NaN(), math.NaN(), math.NaN(), 1}, {3, 6, 5, 11, 2}}
	for i, w := range want {
		for j, wv := range w {
			got := cell(t, out, i, j)
			if math.IsNaN(wv) != math.IsNaN(got) || !math.IsNaN(wv) && math.Abs(got-wv) > 0.1 {
				t.Errorf("row %d column %d: %v, want %v\n%s", i, j, got, wv, out)
			}
		}
	}
}

// TestMaxAndSpreadSkipNull holds expected_max, expected_stddev and
// expected_variance to SQL's MAX and VAR_POP: a row whose argument is NULL
// is absent in every world. Rows 1, 3 and NULL answer 3, 1 and 1, exactly
// and with the closed forms off, and a NULL row moves no answer of the
// other rows — deterministic or symbolic, by the sorted max, the exact
// spread or world sampling.
func TestMaxAndSpreadSkipNull(t *testing.T) {
	const q = "SELECT k, expected_max(a), expected_stddev(a), expected_variance(a) FROM t GROUP BY k"
	run := func(withNull, closedForm bool) *ctable.Table {
		cfg := sampler.DefaultConfig()
		cfg.FixedSamples = 500
		cfg.DisableClosedForm = !closedForm
		db := core.NewDB(cfg)
		x, err := db.CreateVariable("Normal", 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		y, err := db.CreateVariable("Normal", 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		tb := ctable.New("t", "k", "a")
		tb.Tuples = []ctable.Tuple{
			ctable.NewTuple(ctable.Int(1), ctable.Float(1)),
			ctable.NewTuple(ctable.Int(1), ctable.Float(3)),
			ctable.NewTuple(ctable.Int(2), ctable.Symbolic(expr.NewVar(x))),
			ctable.NewTuple(ctable.Int(2), ctable.Symbolic(expr.Add(expr.NewVar(x), expr.NewVar(y)))),
		}
		if withNull {
			tb.Tuples = append(tb.Tuples, ctable.NewTuple(ctable.Int(1), ctable.Null()), ctable.NewTuple(ctable.Int(2), ctable.Null()))
		}
		db.Register(tb)
		return mustExec(t, db, q)
	}
	for _, closedForm := range []bool{true, false} {
		with, without := run(true, closedForm), run(false, closedForm)
		for j, want := range []float64{1, 3, 1, 1} {
			if got := cell(t, with, 0, j); got != want {
				t.Errorf("closed forms %v, column %d: %v, want %v\n%s", closedForm, j, got, want, with)
			}
		}
		for i := range without.Tuples {
			for j := range without.Tuples[i].Values {
				if got, want := cell(t, with, i, j), cell(t, without, i, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("closed forms %v, row %d column %d: %v with a NULL row, %v without", closedForm, i, j, got, want)
				}
			}
		}
	}
}
