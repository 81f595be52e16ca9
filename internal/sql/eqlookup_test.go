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
	"pip/internal/sampler"
)

// eqDiffDB builds the equality lookup's differential catalog: table t (k,
// cls, v, w) of n rows whose key column k mixes every cell kind the lookup
// distinguishes (int, integral and fractional floats, -0, NaN, 2^53+1,
// strings, NULL, bool, CREATE_VARIABLE), a view mv materialized from a
// query over t whose rows carry symbolic and false conditions, and a join
// dimension u (w, lbl, d). cls classes each row so a guard conjunct can
// keep every comparison well-typed — 0 for cells comparable with numbers,
// 1 for cells comparable with strings, 2 for bool — because rules-off
// evaluation errors on the ill-typed pairs the lookup skips.
func eqDiffDB(t *testing.T, rng *rand.Rand, n int) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = rng.Uint64()
	cfg.FixedSamples = 64
	cfg.Workers = 1
	db := core.NewDB(cfg)
	exec := func(q string, args ...ctable.Value) *ctable.Table {
		t.Helper()
		out, err := ExecContext(context.Background(), db, q, args...)
		if err != nil {
			t.Fatalf("%s %v: %v", q, args, err)
		}
		return out
	}
	exec("CREATE TABLE t (k, cls, v, w)")
	for i := 0; i < n; i++ {
		kText, cls := "?", 0
		var k ctable.Value
		switch rng.IntN(10) {
		case 0, 1:
			k = ctable.Int(rng.Int64N(5))
		case 2:
			k = ctable.Float(float64(rng.IntN(5)))
		case 3:
			k = []ctable.Value{ctable.Float(2.5), ctable.Float(math.Copysign(0, -1)), ctable.Int(1<<53 + 1)}[rng.IntN(3)]
		case 4:
			k = ctable.Float(math.NaN())
		case 5, 6:
			k, cls = ctable.String_([]string{"a", "b", "1"}[rng.IntN(3)]), 1
		case 7:
			k, cls = ctable.Null(), rng.IntN(2)
		case 8:
			k, cls = ctable.Bool(rng.IntN(2) == 0), 2
		case 9:
			kText = "CREATE_VARIABLE('DiscreteUniform', 0, 3)"
		}
		vText := "?"
		if rng.IntN(2) == 0 {
			vText = "CREATE_VARIABLE('Normal', ?, 1)"
		}
		var args []ctable.Value
		if kText == "?" {
			args = append(args, k)
		}
		args = append(args, ctable.Int(int64(cls)), ctable.Float(float64(rng.IntN(4))), ctable.Int(rng.Int64N(4)))
		exec(fmt.Sprintf("INSERT INTO t VALUES (%s, ?, %s, ?)", kText, vText), args...)
	}
	exec("CREATE TABLE u (w, lbl, d)")
	for w := 0; w < 4; w++ {
		exec("INSERT INTO u VALUES (?, ?, CREATE_VARIABLE('Normal', ?, 2))",
			ctable.Int(int64(w)), ctable.String_(fmt.Sprintf("L%d", w)), ctable.Float(float64(4+w)))
	}
	view := exec("SELECT k, cls, v, w FROM t WHERE v > 1")
	for i := 0; i < len(view.Tuples); i += 3 {
		view.Tuples[i].Cond = cond.FalseCondition()
	}
	db.Materialize("mv", view)
	return db
}

// eqDiffQuery draws one `col = key` query over the differential catalog:
// the key (bound as a placeholder or written as a literal, on either side
// of the =) with the guard that keeps the comparison well-typed, in a
// single-table shape or as a pushed-down join prefilter. probe reports
// whether the key is one the planner may look up.
func eqDiffQuery(rng *rand.Rand) (q string, args []ctable.Value, probe bool) {
	numeric := []ctable.Value{
		ctable.Int(rng.Int64N(6)), ctable.Float(float64(rng.IntN(5))), ctable.Float(2.5),
		ctable.Float(math.Copysign(0, -1)), ctable.Float(0), ctable.Float(1 << 53),
		ctable.Float(math.NaN()), ctable.Null(),
	}
	strs := []ctable.Value{ctable.String_("a"), ctable.String_("b"), ctable.String_("1"), ctable.String_("zz")}
	var key ctable.Value
	var guard string
	if rng.IntN(2) == 0 {
		key, guard = numeric[rng.IntN(len(numeric))], "%[1]scls < 0.5"
	} else {
		key, guard = strs[rng.IntN(len(strs))], "%[1]scls > 0.5 AND %[1]scls < 1.5"
	}
	probe = core.Probeable(key)
	lit := "?"
	switch {
	case rng.IntN(3) > 0:
		args = []ctable.Value{key}
	case key.Kind == ctable.KindString:
		lit = "'" + key.S + "'"
	case key.Kind == ctable.KindInt || (key.Kind == ctable.KindFloat && !math.Signbit(key.F) && key.F < 1e15):
		lit = key.String() // a NumLit: the key as a float
	default:
		args = []ctable.Value{key}
	}
	eq := "%[1]sk = " + lit
	if rng.IntN(2) == 0 {
		eq = lit + " = %[1]sk"
	}
	from := []string{"t", "mv"}[rng.IntN(2)]
	where := guard + " AND " + eq
	switch rng.IntN(7) {
	case 0:
		q = "SELECT k, v FROM " + from + " WHERE " + fmt.Sprintf(where, "")
	case 1:
		q = "SELECT k, conf() AS p, expectation(v) AS e FROM " + from + " WHERE " + fmt.Sprintf(where, "")
	case 2:
		q = "SELECT expected_sum(v) AS s, expected_count(*) AS c FROM " + from + " WHERE " + fmt.Sprintf(where, "")
	case 3:
		q = "SELECT k, v, conf() AS p FROM " + from + " WHERE " + fmt.Sprintf(where, "") + " AND v > 1"
	case 4:
		q = "SELECT x.k, u.lbl FROM " + from + " x, u WHERE x.w = u.w AND " + fmt.Sprintf(where, "x.")
	case 5:
		// The paper's running example: a keyed selection below the join.
		q = "SELECT expected_sum(x.v) AS loss FROM " + from + " x, u WHERE x.w = u.w AND " +
			fmt.Sprintf(where, "x.") + " AND u.d >= 7"
	case 6:
		// The key on the build side of the join.
		q = "SELECT u.lbl, x.v, conf() AS p FROM u, " + from + " x WHERE u.w = x.w AND " + fmt.Sprintf(where, "x.")
	}
	return q, args, probe
}

// TestEqLookupDifferential holds the equality lookup to the two references
// the rest of the engine answers to: every random `col = key` query returns,
// rules on, exactly the rows, order, rendered conditions and sampled bits
// of the rules-off pipeline (full scans, no lookup) and of the naive
// evaluator — and is planned as a lookup exactly when its key is an int, a
// non-NaN float or a string.
func TestEqLookupDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	keyed := 0
	for round := 0; round < 4; round++ {
		db := eqDiffDB(t, rng, 60)
		for i := 0; i < 60; i++ {
			q, args, probe := eqDiffQuery(rng)
			on := context.Background()
			got, err := ExecContext(on, db, q, args...)
			if err != nil {
				t.Fatalf("%s %v: %v", q, args, err)
			}
			ref, err := ExecContext(WithHints(on, allRulesOff), db, q, args...)
			if err != nil {
				t.Fatalf("%s %v (rules off): %v", q, args, err)
			}
			naive, err := naiveExec(on, db, q, args...)
			if err != nil {
				t.Fatalf("%s %v (oracle): %v", q, args, err)
			}
			if got.String() != ref.String() || got.String() != naive.String() {
				t.Fatalf("%s %v:\nrules on:\n%s\nrules off:\n%s\nreference evaluator:\n%s", q, args, got, ref, naive)
			}
			plan, err := ExplainContext(on, db, q, args...)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan.String(), "[key: ") != probe {
				t.Fatalf("%s %v: lookup planned = %v, want %v:\n%s", q, args, !probe, probe, plan)
			}
			if probe {
				keyed++
			}
		}
	}
	if keyed < 100 {
		t.Fatalf("only %d of 240 queries ran an equality lookup", keyed)
	}
}

// TestEqLookupDropCreate: DROP TABLE then CREATE TABLE of the same name
// must never serve the dropped table's index, and rows appended between
// probes must be found.
func TestEqLookupDropCreate(t *testing.T) {
	db := testDB(t)
	count := func(want int) {
		t.Helper()
		out := mustExec(t, db, "SELECT k FROM t WHERE k = 1")
		if out.Len() != want {
			t.Fatalf("k = 1 returned %d rows, want %d:\n%s", out.Len(), want, out)
		}
	}
	mustExec(t, db, "CREATE TABLE t (k)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (1)")
	count(2)
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	count(3)
	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (k)")
	mustExec(t, db, "INSERT INTO t VALUES (2), (1)")
	count(1)
}

// pointReadDB is the benchmark's point-read catalog in miniature: 500
// customers keyed 1..500 with a Poisson order count each.
func pointReadDB(tb testing.TB) *core.DB {
	tb.Helper()
	db := core.NewDB(sampler.DefaultConfig())
	ctx := context.Background()
	if _, err := ExecContext(ctx, db, "CREATE TABLE customers (cust, price, morders)"); err != nil {
		tb.Fatal(err)
	}
	for c := 1; c <= 500; c++ {
		if _, err := ExecContext(ctx, db, "INSERT INTO customers VALUES (?, ?, CREATE_VARIABLE('Poisson', ?))",
			ctable.Int(int64(c)), ctable.Float(float64(100+c%37)), ctable.Float(1+float64(c%5))); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

const pointReadQuery = "SELECT expected_sum(morders * price) FROM customers WHERE cust = ?"

// TestPointReadExaminesOneRow pins the point read's cost in rows: over 500
// customers, WHERE cust = ? reads the one matching row.
func TestPointReadExaminesOneRow(t *testing.T) {
	db := pointReadDB(t)
	node, err := Explain(db, "EXPLAIN ANALYZE "+pointReadQuery, ctable.Int(42))
	if err != nil {
		t.Fatal(err)
	}
	leaf := node
	for len(leaf.Children) > 0 {
		leaf = leaf.Children[0]
	}
	if leaf.Op != "Scan" || leaf.Detail != "customers [key: cust = 42]" || leaf.Rows != 1 {
		t.Fatalf("point read leaf %s %s rows=%d, want Scan customers [key: cust = 42] rows=1:\n%s",
			leaf.Op, leaf.Detail, leaf.Rows, node)
	}
}

// BenchmarkPointRead is one in-process point read: parse, plan, the
// equality lookup and the closed-form expectation of one row.
func BenchmarkPointRead(b *testing.B) {
	db := pointReadDB(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecContext(ctx, db, pointReadQuery, ctable.Int(int64(1+i%500))); err != nil {
			b.Fatal(err)
		}
	}
}
