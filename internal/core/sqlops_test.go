package core_test

// The probability-removing operators (conf(), expectation(), the expected_*
// aggregates) are implemented once, by the SQL engine. These tests build
// c-tables through the core API, register them in the catalogue and check
// that the SQL operators give the answers the paper's semantics require of
// such tables: symbolic cells and row conditions made outside SQL.

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/expr"
	"pip/internal/sampler"
	"pip/internal/sql"
)

func opsDB() *core.DB {
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 31415
	return core.NewDB(cfg)
}

func query(t *testing.T, db *core.DB, q string) *ctable.Table {
	t.Helper()
	out, err := sql.Exec(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

func floatCell(t *testing.T, tb *ctable.Table, row, col int) float64 {
	t.Helper()
	f, ok := tb.Tuples[row].Values[col].AsFloat()
	if !ok {
		t.Fatalf("cell (%d, %d) not numeric: %s", row, col, tb.Tuples[row].Values[col])
	}
	return f
}

func TestConfTable(t *testing.T) {
	db := opsDB()
	v, _ := db.CreateVariable("Uniform", 0, 1)
	tb := ctable.New("t", "x")
	tup := ctable.NewTuple(ctable.Float(3))
	tup.Cond = cond.FromClause(cond.Clause{
		cond.NewAtom(expr.NewVar(v), cond.GT, expr.Const(0.6)),
	})
	tb.MustAppend(tup)
	db.Register(tb)

	out := query(t, db, "SELECT x, conf() AS conf FROM t")
	if len(out.Schema) != 2 || out.Schema[1].Name != "conf" {
		t.Fatalf("schema %v", out.Schema.Names())
	}
	if out.Len() != 1 || floatCell(t, out, 0, 0) != 3 {
		t.Fatalf("deterministic column not kept: %s", out)
	}
	if got := floatCell(t, out, 0, 1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("conf col %v", got)
	}
	if !out.Tuples[0].Cond.IsTrue() {
		t.Fatal("conditions should be stripped by conf")
	}
}

func TestExpectationTable(t *testing.T) {
	db := opsDB()
	v, _ := db.CreateVariable("Normal", 8, 1)
	tb := ctable.New("t", "label", "val")
	tb.MustAppend(ctable.NewTuple(ctable.String_("a"), ctable.Symbolic(expr.NewVar(v))))
	db.Register(tb)

	out := query(t, db, "SELECT label, expectation(val) FROM t")
	if out.Tuples[0].Values[0].S != "a" {
		t.Fatal("deterministic cell mangled")
	}
	if got := floatCell(t, out, 0, 1); math.Abs(got-8) > 1e-9 {
		t.Fatalf("expectation col %v", got)
	}
}

func TestGroupedAggregate(t *testing.T) {
	db := opsDB()
	va, _ := db.CreateVariable("Normal", 10, 1)
	vb, _ := db.CreateVariable("Normal", 30, 1)
	tb := ctable.New("t", "grp", "val")
	tb.MustAppend(ctable.NewTuple(ctable.String_("a"), ctable.Symbolic(expr.NewVar(va))))
	tb.MustAppend(ctable.NewTuple(ctable.String_("b"), ctable.Symbolic(expr.NewVar(vb))))
	tb.MustAppend(ctable.NewTuple(ctable.String_("a"), ctable.Float(5)))
	db.Register(tb)

	out := query(t, db, "SELECT grp, expected_sum(val) AS total FROM t GROUP BY grp")
	if out.Len() != 2 {
		t.Fatalf("groups %d", out.Len())
	}
	byKey := map[string]float64{}
	for i, tp := range out.Tuples {
		byKey[tp.Values[0].S] = floatCell(t, out, i, 1)
	}
	if math.Abs(byKey["a"]-15) > 1e-9 || math.Abs(byKey["b"]-30) > 1e-9 {
		t.Fatalf("group sums %v", byKey)
	}
}

func TestGroupedAggregateWholeTable(t *testing.T) {
	db := opsDB()
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Float(2)))
	tb.MustAppend(ctable.NewTuple(ctable.Float(3)))
	db.Register(tb)

	out := query(t, db, "SELECT expected_sum(v), expected_count(), expected_avg(v), expected_max(v) FROM t")
	if out.Len() != 1 {
		t.Fatalf("rows %d", out.Len())
	}
	for i, want := range []float64{5, 2, 2.5, 3} {
		if got := floatCell(t, out, 0, i); got != want {
			t.Fatalf("col %d = %v, want %v", i, got, want)
		}
	}
}
