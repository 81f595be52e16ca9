package sql

import (
	"math"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
)

func testDB(t *testing.T) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 271828
	return core.NewDB(cfg)
}

func mustExec(t *testing.T, db *core.DB, q string) *ctable.Table {
	t.Helper()
	out, err := Exec(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

func cell(t *testing.T, tb *ctable.Table, row, col int) float64 {
	t.Helper()
	f, ok := tb.Tuples[row].Values[col].AsFloat()
	if !ok {
		t.Fatalf("cell (%d, %d) not numeric: %s", row, col, tb.Tuples[row].Values[col])
	}
	return f
}

// --- Lexer ---

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a.b, 'it''s', 3.5e2 FROM t WHERE x <> 1 -- comment\n")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind != TokEOF {
			texts = append(texts, tok.Text)
		}
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "3.5e2", "FROM", "t", "WHERE", "x", "<>", "1"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens %v", texts)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("select 'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := Lex("select @"); err == nil {
		t.Fatal("invalid character accepted")
	}
}

// --- Parser ---

func TestParseSelectShape(t *testing.T) {
	st, err := Parse(`SELECT o.price * 2 AS double_price, conf()
		FROM orders o, shipping s
		WHERE o.dest = s.dest AND s.days >= 7
		GROUP BY o.cust ORDER BY double_price DESC LIMIT 5;`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if len(sel.Targets) != 2 || len(sel.From) != 2 || len(sel.Where) != 2 {
		t.Fatalf("shape: %+v", sel)
	}
	if sel.From[1].Alias != "s" || sel.OrderBy == nil || !sel.Desc || sel.Limit != 5 {
		t.Fatalf("modifiers: %+v", sel)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"INSERT INTO t (1)",
		"CREATE TABLE t",
		"SELECT a FROM t WHERE a LIKE b",
		"SELECT a FROM t extra garbage (",
		"FROBNICATE",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Fatalf("parsed invalid query %q", q)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	st, err := Parse("SELECT 1 + 2 * 3 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	e := st.(*SelectStmt).Targets[0].Expr.(BinExpr)
	if e.Op != '+' {
		t.Fatalf("top op %c", e.Op)
	}
	if inner, ok := e.Right.(BinExpr); !ok || inner.Op != '*' {
		t.Fatal("multiplication did not bind tighter")
	}
}

// --- Execution ---

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE items (name, qty)")
	mustExec(t, db, "INSERT INTO items VALUES ('apple', 3), ('pear', 5)")
	out := mustExec(t, db, "SELECT name, qty FROM items WHERE qty > 3")
	if out.Len() != 1 || out.Tuples[0].Values[0].S != "pear" {
		t.Fatalf("result: %s", out)
	}
}

func TestInsertArityError(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a, b)")
	if _, err := Exec(db, "INSERT INTO t VALUES (1)"); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestDropTable(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE temp (x)")
	mustExec(t, db, "DROP TABLE temp")
	if _, err := Exec(db, "SELECT x FROM temp"); err == nil {
		t.Fatal("dropped table still queryable")
	}
}

func TestCreateVariableAndConf(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (CREATE_VARIABLE('Uniform', 0, 1))")
	out := mustExec(t, db, "SELECT conf() FROM m WHERE v < 0.25")
	if out.Len() != 1 {
		t.Fatalf("rows %d", out.Len())
	}
	if got := cell(t, out, 0, 0); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("conf %v, want 0.25", got)
	}
	if !out.Tuples[0].Cond.IsTrue() {
		t.Fatal("conf() should strip conditions")
	}
	// A deterministic column rides along; its row's confidence is the
	// probability of the symbolic WHERE conjunct.
	mustExec(t, db, "CREATE TABLE d (x, u)")
	mustExec(t, db, "INSERT INTO d VALUES (3, CREATE_VARIABLE('Uniform', 0, 1))")
	out = mustExec(t, db, "SELECT x, conf() AS p FROM d WHERE u > 0.6")
	if out.Len() != 1 || cell(t, out, 0, 0) != 3 || out.Schema[1].Name != "p" {
		t.Fatalf("conf table: %s", out)
	}
	if got := cell(t, out, 0, 1); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("conf %v, want 0.4", got)
	}
	if !out.Tuples[0].Cond.IsTrue() {
		t.Fatal("conf() should strip conditions")
	}
}

func TestExpectationFunction(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (CREATE_VARIABLE('Normal', 10, 2))")
	out := mustExec(t, db, "SELECT expectation(v) AS ev FROM m")
	if got := cell(t, out, 0, 0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("expectation %v", got)
	}
	if out.Schema[0].Name != "ev" {
		t.Fatalf("alias lost: %v", out.Schema.Names())
	}
	// Deterministic cells pass through; the symbolic one becomes its mean.
	mustExec(t, db, "CREATE TABLE l (label, val)")
	mustExec(t, db, "INSERT INTO l VALUES ('a', CREATE_VARIABLE('Normal', 8, 1))")
	out = mustExec(t, db, "SELECT label, expectation(val) FROM l")
	if out.Tuples[0].Values[0].S != "a" {
		t.Fatalf("deterministic cell mangled: %s", out)
	}
	if got := cell(t, out, 0, 1); math.Abs(got-8) > 1e-9 {
		t.Fatalf("expectation %v, want 8", got)
	}
}

func TestExpectedSumAggregate(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE sales (region, amount)")
	mustExec(t, db, "INSERT INTO sales VALUES ('east', CREATE_VARIABLE('Normal', 100, 5))")
	mustExec(t, db, "INSERT INTO sales VALUES ('east', 50), ('west', CREATE_VARIABLE('Normal', 200, 5))")
	out := mustExec(t, db, "SELECT region, expected_sum(amount) AS total FROM sales GROUP BY region ORDER BY region")
	if out.Len() != 2 {
		t.Fatalf("groups %d", out.Len())
	}
	if out.Tuples[0].Values[0].S != "east" || math.Abs(cell(t, out, 0, 1)-150) > 1e-6 {
		t.Fatalf("east row: %s", out)
	}
	if math.Abs(cell(t, out, 1, 1)-200) > 1e-6 {
		t.Fatalf("west row: %s", out)
	}
}

func TestSymbolicWhereBecomesCondition(t *testing.T) {
	// The CTYPE rewrite: a probabilistic WHERE clause moves into the
	// row condition rather than filtering.
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (CREATE_VARIABLE('Normal', 0, 1))")
	out := mustExec(t, db, "SELECT v FROM m WHERE v > 1")
	if out.Len() != 1 {
		t.Fatalf("symbolic row filtered out")
	}
	if out.Tuples[0].Cond.IsTrue() {
		t.Fatal("condition not attached")
	}
}

func TestJoinQueryEndToEnd(t *testing.T) {
	// The running example in SQL.
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE orders (cust, shipto, price)")
	mustExec(t, db, "CREATE TABLE shipping (dest, duration)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', 'NY', CREATE_VARIABLE('Normal', 100, 10))")
	mustExec(t, db, "INSERT INTO orders VALUES ('Bob', 'LA', CREATE_VARIABLE('Normal', 80, 5))")
	mustExec(t, db, "INSERT INTO shipping VALUES ('NY', CREATE_VARIABLE('Normal', 5, 2))")
	mustExec(t, db, "INSERT INTO shipping VALUES ('LA', CREATE_VARIABLE('Normal', 4, 1))")

	out := mustExec(t, db, `
		SELECT expected_sum(o.price) AS loss
		FROM orders o, shipping s
		WHERE o.shipto = s.dest AND o.cust = 'Joe' AND s.duration >= 7`)
	if out.Len() != 1 {
		t.Fatalf("rows %d", out.Len())
	}
	// E[price] * P[duration >= 7] = 100 * (1 - Phi(1)) ~ 15.87.
	want := 100 * (1 - 0.5*math.Erfc(-1/math.Sqrt2))
	if got := cell(t, out, 0, 0); math.Abs(got-want) > want*0.1 {
		t.Fatalf("loss %v, want ~%v", got, want)
	}
}

func TestArithmeticTargets(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a, b)")
	mustExec(t, db, "INSERT INTO t VALUES (10, 4)")
	out := mustExec(t, db, "SELECT a * b + 2 AS v, a - b, a / b, -a FROM t")
	wants := []float64{42, 6, 2.5, -10}
	for i, w := range wants {
		if got := cell(t, out, 0, i); got != w {
			t.Fatalf("col %d = %v, want %v", i, got, w)
		}
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a, b)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 2)")
	out := mustExec(t, db, "SELECT * FROM t")
	if len(out.Schema) != 2 || out.Len() != 1 {
		t.Fatalf("star: %s", out)
	}
}

func TestDistinctQuery(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1), (2)")
	out := mustExec(t, db, "SELECT DISTINCT a FROM t")
	if out.Len() != 2 {
		t.Fatalf("distinct rows %d", out.Len())
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a)")
	mustExec(t, db, "INSERT INTO t VALUES (3), (1), (2)")
	out := mustExec(t, db, "SELECT a FROM t ORDER BY a DESC LIMIT 2")
	if out.Len() != 2 || cell(t, out, 0, 0) != 3 || cell(t, out, 1, 0) != 2 {
		t.Fatalf("order/limit: %s", out)
	}
}

func TestExpectedCountAndAvg(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (10), (20)")
	out := mustExec(t, db, "SELECT expected_count(*) AS c, expected_avg(v) AS a FROM t")
	if cell(t, out, 0, 0) != 2 || cell(t, out, 0, 1) != 15 {
		t.Fatalf("count/avg: %s", out)
	}
	// The four aggregates side by side over deterministic rows, ungrouped and
	// as one group: sum, count, avg and max of {2, 3}.
	mustExec(t, db, "CREATE TABLE u (g, v)")
	mustExec(t, db, "INSERT INTO u VALUES ('a', 2), ('a', 3)")
	for _, q := range []string{
		"SELECT expected_sum(v), expected_count(), expected_avg(v), expected_max(v) FROM u",
		"SELECT expected_sum(v), expected_count(), expected_avg(v), expected_max(v) FROM u GROUP BY g",
	} {
		out := mustExec(t, db, q)
		if out.Len() != 1 {
			t.Fatalf("%s: %d rows", q, out.Len())
		}
		for i, want := range []float64{5, 2, 2.5, 3} {
			if got := cell(t, out, 0, i); got != want {
				t.Fatalf("%s: col %d = %v, want %v", q, i, got, want)
			}
		}
	}
}

func TestExpectedMaxAggregate(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (5), (9), (2)")
	out := mustExec(t, db, "SELECT expected_max(v) AS m FROM t")
	if cell(t, out, 0, 0) != 9 {
		t.Fatalf("max: %s", out)
	}
}

func TestAggregateErrors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (a, v)")
	mustExec(t, db, "INSERT INTO t VALUES ('x', 1)")
	bad := []string{
		"SELECT a, expected_sum(v) FROM t",   // a not grouped
		"SELECT *, expected_sum(v) FROM t",   // star with aggregate
		"SELECT expected_sum(v, v) FROM t",   // arity
		"SELECT expected_sum_hist(v) FROM t", // API-only
		"SELECT b FROM t",                    // unknown column
		"SELECT expected_sum(nope) FROM t",   // unknown agg arg
		"SELECT a FROM t ORDER BY nope",      // unknown order col
		"SELECT v FROM missing",              // unknown table
	}
	for _, q := range bad {
		if _, err := Exec(db, q); err == nil {
			t.Fatalf("accepted %q", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE a (x)")
	mustExec(t, db, "CREATE TABLE b (x)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (2)")
	if _, err := Exec(db, "SELECT x FROM a, b"); err == nil {
		t.Fatal("ambiguous column accepted")
	}
	out := mustExec(t, db, "SELECT a.x, b.x FROM a, b")
	if cell(t, out, 0, 0) != 1 || cell(t, out, 0, 1) != 2 {
		t.Fatalf("qualified refs: %s", out)
	}
}

func TestGroupConfAggregate(t *testing.T) {
	// aconf over a group: P[at least one row present].
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (g, v)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', CREATE_VARIABLE('Uniform', 0, 1))")
	out := mustExec(t, db, "SELECT g, conf() AS p FROM t WHERE v < 0.5 GROUP BY g")
	if math.Abs(cell(t, out, 0, 1)-0.5) > 1e-9 {
		t.Fatalf("group conf %v", cell(t, out, 0, 1))
	}
}
