package sql

import (
	"context"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
)

// allRulesOff disables every rewrite rule: the pipeline degenerates to the
// pre-planner semantics (cross-product odometer + one post-join filter),
// which the equivalence corpus uses as its reference.
var allRulesOff = Hints{NoFold: true, NoPushdown: true, NoHashJoin: true, NoPrune: true}

// plannerDB builds a catalog exercising joins, symbolic cells and
// aggregates.
func plannerDB(t *testing.T) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 314159
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE o (cust, shipto, price)")
	mustExec(t, db, "CREATE TABLE s (dest, duration)")
	mustExec(t, db, "INSERT INTO o VALUES ('Joe', 'NY', CREATE_VARIABLE('Normal', 100, 10))")
	mustExec(t, db, "INSERT INTO o VALUES ('Bob', 'LA', CREATE_VARIABLE('Normal', 80, 5))")
	mustExec(t, db, "INSERT INTO o VALUES ('Amy', 'NY', 55)")
	mustExec(t, db, "INSERT INTO s VALUES ('NY', CREATE_VARIABLE('Normal', 5, 2))")
	mustExec(t, db, "INSERT INTO s VALUES ('LA', 4)")
	mustExec(t, db, "CREATE TABLE r (a, ra)")
	mustExec(t, db, "CREATE TABLE s2 (a, b, sb)")
	mustExec(t, db, "CREATE TABLE u (b, uc)")
	mustExec(t, db, "INSERT INTO r VALUES (1, 'r1'), (2, 'r2'), (3, 'r3')")
	mustExec(t, db, "INSERT INTO s2 VALUES (1, 10, 's1'), (2, 20, 's2'), (2, 30, 's3')")
	mustExec(t, db, "INSERT INTO u VALUES (10, 'u1'), (20, 'u2'), (30, 'u3'), (40, 'u4')")
	return db
}

// execHinted executes one statement under planner hints.
func execHinted(t *testing.T, db *core.DB, q string, h Hints) *ctable.Table {
	t.Helper()
	out, err := ExecContext(WithHints(context.Background(), h), db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return out
}

// TestPlannerEquivalenceCorpus asserts the rewritten pipeline returns
// tables bit-identical (values, conditions, row order, schema) to the
// rules-off reference — i.e. to pre-planner cross-product-then-filter
// semantics — across joins, per-row functions, aggregates, DISTINCT,
// ORDER BY and LIMIT.
func TestPlannerEquivalenceCorpus(t *testing.T) {
	db := plannerDB(t)
	corpus := []string{
		"SELECT * FROM o",
		"SELECT cust, price FROM o WHERE price > 60",
		"SELECT cust, price * 2 AS pp FROM o WHERE price > 60 AND price < 95",
		"SELECT o.cust, s.duration FROM o, s WHERE o.shipto = s.dest",
		"SELECT o.cust FROM o, s WHERE o.shipto = s.dest AND s.duration > 4",
		"SELECT o.cust, conf() FROM o, s WHERE o.shipto = s.dest AND s.duration > 4",
		"SELECT expectation(price) AS ev FROM o WHERE price > 90",
		"SELECT r.ra, s2.sb, u.uc FROM r, s2, u WHERE r.a = s2.a AND s2.b = u.b",
		"SELECT r.ra, u.uc FROM r, u WHERE r.a < u.b",
		"SELECT r.ra FROM r, u",
		"SELECT r.ra, s2.sb, u.uc FROM r, s2, u WHERE r.a = s2.a AND s2.b = u.b AND u.uc <> 'u2'",
		"SELECT DISTINCT shipto FROM o",
		"SELECT DISTINCT o.shipto FROM o, s WHERE o.shipto = s.dest",
		"SELECT cust FROM o ORDER BY cust DESC LIMIT 2",
		"SELECT ra FROM r ORDER BY ra LIMIT 1",
		"SELECT cust FROM o WHERE 1 = 1 AND price > 60",
		"SELECT cust FROM o WHERE 1 = 0",
		"SELECT expected_sum(o.price) AS loss FROM o, s WHERE o.shipto = s.dest AND s.duration >= 7",
		"SELECT shipto, expected_sum(price) AS total FROM o GROUP BY shipto ORDER BY shipto",
		"SELECT shipto, expected_count(*) AS c, expected_avg(price) AS a FROM o GROUP BY shipto ORDER BY shipto",
		"SELECT expected_max(price) AS m FROM o",
		"SELECT shipto, conf() AS p FROM o WHERE price > 70 GROUP BY shipto",
	}
	for _, q := range corpus {
		ref := execHinted(t, db, q, allRulesOff)
		got := execHinted(t, db, q, Hints{})
		if got.String() != ref.String() {
			t.Fatalf("%s:\nplanned:\n%s\nreference:\n%s", q, got, ref)
		}
	}
}

// TestPlannerEquivalencePrepared asserts prepared-statement re-execution
// with different bindings stays bit-identical to the reference on each run
// (plans are rebuilt per execution, so folding sees each binding).
func TestPlannerEquivalencePrepared(t *testing.T) {
	db := plannerDB(t)
	p, err := Prepare("SELECT o.cust FROM o, s WHERE o.shipto = s.dest AND o.price > ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []float64{50, 70, 90, 1000} {
		ref, err := p.ExecContext(WithHints(context.Background(), allRulesOff), db, ctable.Float(arg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ExecContext(context.Background(), db, ctable.Float(arg))
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != ref.String() {
			t.Fatalf("arg %v:\nplanned:\n%s\nreference:\n%s", arg, got, ref)
		}
	}
}

// explainText renders the plan of one statement.
func explainText(t *testing.T, db *core.DB, q string) string {
	t.Helper()
	node, err := Explain(db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return node.String()
}

// TestPlanShapeSnapshots pins the plan produced by each rewrite rule.
func TestPlanShapeSnapshots(t *testing.T) {
	db := plannerDB(t)
	cases := []struct {
		name, q, want string
	}{
		{"hash-join-extraction",
			"SELECT o.cust, s.duration FROM o, s WHERE o.shipto = s.dest",
			`Project (cust, duration)
  Filter (o.shipto = s.dest)
    HashJoin (o.shipto = s.dest)
      Scan o [cols: cust, shipto]
      Scan s`},
		{"pushdown-and-prune",
			"SELECT o.cust FROM o, s WHERE o.shipto = s.dest AND s.duration > 4",
			`Project (cust)
  Filter (o.shipto = s.dest AND s.duration > 4.0)
    HashJoin (o.shipto = s.dest)
      Scan o [cols: cust, shipto]
      Scan s [pre: s.duration > 4.0]`},
		{"equality-lookup",
			"SELECT price FROM o WHERE cust = 'Amy'",
			`Project (price)
  Filter (cust = 'Amy')
    Scan o [key: cust = 'Amy']`},
		{"equality-lookup-below-join",
			"SELECT o.price FROM o, s WHERE o.shipto = s.dest AND o.cust = 'Joe'",
			`Project (price)
  Filter (o.shipto = s.dest AND o.cust = 'Joe')
    HashJoin (o.shipto = s.dest)
      Scan o [key: o.cust = 'Joe']
      Scan s [cols: dest]`},
		{"three-table-left-deep",
			"SELECT r.ra, u.uc FROM r, s2, u WHERE r.a = s2.a AND s2.b = u.b",
			`Project (ra, uc)
  Filter (r.a = s2.a AND s2.b = u.b)
    HashJoin (s2.b = u.b)
      HashJoin (r.a = s2.a)
        Scan r
        Scan s2 [cols: a, b]
      Scan u`},
		{"nested-loop-fallback",
			"SELECT r.ra, u.uc FROM r, u WHERE r.a < u.b",
			`Project (ra, uc)
  Filter (r.a < u.b)
    NestedLoop
      Scan r
      Scan u`},
		{"prune-to-zero-width",
			"SELECT r.ra FROM r, u",
			`Project (ra)
  NestedLoop
    Scan r [cols: ra]
    Scan u [cols: none]`},
		{"constant-false-folds-to-result",
			"SELECT cust FROM o WHERE 1 = 0",
			`Project (cust)
  Result (no rows: 1.0 = 0.0 is false)`},
		{"constant-true-conjunct-drops",
			"SELECT cust FROM o WHERE 1 = 1 AND price > 60",
			`Project (cust)
  Filter (price > 60.0)
    Scan o [pre: price > 60.0]`},
		{"blocking-operator-stack",
			"SELECT DISTINCT cust FROM o ORDER BY cust DESC LIMIT 2",
			`Limit 2
  Sort (cust DESC)
    Distinct
      Project (cust)
        Scan o`},
		{"aggregate-pipeline",
			"SELECT shipto, expected_sum(price) AS total FROM o GROUP BY shipto",
			`Aggregate (shipto, total) [group by shipto]
  Scan o`},
	}
	for _, tc := range cases {
		if got := explainText(t, db, tc.q); got != tc.want {
			t.Errorf("%s:\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}

// TestPlanHints verifies context hints disable individual rules.
func TestPlanHints(t *testing.T) {
	db := plannerDB(t)
	q := "SELECT o.cust FROM o, s WHERE o.shipto = s.dest AND s.duration > 4 AND o.cust = 'Joe'"
	node, err := ExplainContext(WithHints(context.Background(), allRulesOff), db, q)
	if err != nil {
		t.Fatal(err)
	}
	text := node.String()
	if strings.Contains(text, "HashJoin") || strings.Contains(text, "[pre:") || strings.Contains(text, "[key:") || strings.Contains(text, "[cols:") {
		t.Fatalf("rules-off plan still rewritten:\n%s", text)
	}
	if !strings.Contains(text, "NestedLoop") {
		t.Fatalf("rules-off plan missing NestedLoop:\n%s", text)
	}
}

// TestExplainStatement runs EXPLAIN end-to-end through the statement
// surface: the result is a one-column QUERY PLAN table, and ANALYZE
// annotates operators with row counts.
func TestExplainStatement(t *testing.T) {
	db := plannerDB(t)
	out := mustExec(t, db, "EXPLAIN SELECT o.cust FROM o, s WHERE o.shipto = s.dest")
	if len(out.Schema) != 1 || out.Schema[0].Name != "QUERY PLAN" {
		t.Fatalf("schema %v", out.Schema.Names())
	}
	if out.Len() < 4 || !strings.Contains(out.String(), "HashJoin") {
		t.Fatalf("plan:\n%s", out)
	}
	if strings.Contains(out.String(), "rows=") {
		t.Fatalf("non-ANALYZE plan carries row counts:\n%s", out)
	}

	out = mustExec(t, db, "EXPLAIN ANALYZE SELECT o.cust FROM o, s WHERE o.shipto = s.dest")
	text := out.String()
	if !strings.Contains(text, "rows=") || !strings.Contains(text, "Execution time:") {
		t.Fatalf("ANALYZE plan missing counters:\n%s", text)
	}
}

// TestExplainAnalyzeRowCounts pins the streaming behavior ANALYZE exposes:
// a LIMIT stops pulling the scan, and a constant-false WHERE never scans.
func TestExplainAnalyzeRowCounts(t *testing.T) {
	db := plannerDB(t)
	node, err := Explain(db, "EXPLAIN ANALYZE SELECT cust FROM o LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	scan := node
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != "Scan" || scan.Rows != 2 {
		t.Fatalf("scan under LIMIT 2 emitted %d rows:\n%s", scan.Rows, node)
	}

	node, err = Explain(db, "EXPLAIN ANALYZE SELECT cust FROM o WHERE 1 = 0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(node.String(), "Result") || strings.Contains(node.String(), "Scan") {
		t.Fatalf("constant-false plan scans:\n%s", node)
	}
}

// TestExplainTypedTree checks the programmatic Explain surface: typed
// nodes, children, columns, placeholder binding.
func TestExplainTypedTree(t *testing.T) {
	db := plannerDB(t)
	node, err := Explain(db, "SELECT o.cust FROM o, s WHERE o.shipto = s.dest AND o.price > ?", ctable.Float(90))
	if err != nil {
		t.Fatal(err)
	}
	if node.Op != "Project" || len(node.Columns) != 1 || node.Columns[0] != "cust" {
		t.Fatalf("root %+v", node)
	}
	if node.Analyzed {
		t.Fatal("plain Explain reported analyzed counters")
	}
	var ops []string
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		ops = append(ops, n.Op)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(node)
	want := []string{"Project", "Filter", "HashJoin", "Scan", "Scan"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("operator walk %v, want %v", ops, want)
	}
	// Bound placeholder folds into the plan text as a literal.
	if !strings.Contains(node.String(), "90") {
		t.Fatalf("bound constant missing from plan:\n%s", node)
	}
	// Arity mismatch is an ErrBind, as in execution.
	if _, err := Explain(db, "SELECT cust FROM o WHERE price > ?"); err == nil {
		t.Fatal("unbound placeholder accepted")
	}
}

// TestHashJoinSymbolicKeys exercises the fallback path: symbolic join keys
// pair with everything at the join and receive their condition atom from
// the final filter, identically to the reference pipeline.
func TestHashJoinSymbolicKeys(t *testing.T) {
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 7
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE a (k, av)")
	mustExec(t, db, "CREATE TABLE b (k, bv)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 'a1'), (CREATE_VARIABLE('DiscreteUniform', 1, 2), 'a2')")
	mustExec(t, db, "INSERT INTO b VALUES (1, 'b1'), (2, 'b2'), (CREATE_VARIABLE('DiscreteUniform', 1, 3), 'b3')")
	q := "SELECT a.av, b.bv FROM a, b WHERE a.k = b.k"
	ref := execHinted(t, db, q, allRulesOff)
	got := execHinted(t, db, q, Hints{})
	if got.String() != ref.String() {
		t.Fatalf("symbolic keys diverge:\nplanned:\n%s\nreference:\n%s", got, ref)
	}
	// The deterministic pair (1, 'a1')x(1, 'b1') plus every symbolic pairing
	// must survive with its comparison atom.
	if got.Len() != 5 {
		t.Fatalf("rows %d:\n%s", got.Len(), got)
	}
}

// TestConstantFalseSkipsRowErrors verifies folding preserves short-circuit
// semantics when the constant-false conjunct comes first: conjuncts after
// it never evaluate, so a would-be type error downstream stays silent
// exactly as in the reference.
func TestConstantFalseSkipsRowErrors(t *testing.T) {
	db := plannerDB(t)
	q := "SELECT cust FROM o WHERE 1 = 0 AND cust > 5"
	ref := execHinted(t, db, q, allRulesOff)
	got := execHinted(t, db, q, Hints{})
	if got.Len() != 0 || ref.Len() != 0 {
		t.Fatalf("constant-false returned rows")
	}
	if len(got.Schema) != 1 || got.Schema[0].Name != "cust" {
		t.Fatalf("schema %v", got.Schema.Names())
	}
}

// TestRewriteErrorScope pins the deliberate boundary of the bit-identity
// contract (see rewrite.go): rewrites may prune the very enumeration that
// would raise an ill-typed-comparison error, so the planned query succeeds
// where rules-off evaluation errors — exactly as deterministic SQL engines
// treat errors in unreached rows. Each case asserts the reference errors
// AND the planned result is the error-free evaluation's answer.
func TestRewriteErrorScope(t *testing.T) {
	db := plannerDB(t)
	mustExec(t, db, "CREATE TABLE mt (k, mv)")
	mustExec(t, db, "INSERT INTO mt VALUES (1, 'm1'), ('x', 'm2')") // mixed-kind key
	mustExec(t, db, "CREATE TABLE nk (k, nv)")
	mustExec(t, db, "INSERT INTO nk VALUES (1, 'n1')")
	mustExec(t, db, "CREATE TABLE st (k, s, x)")
	mustExec(t, db, "INSERT INTO st VALUES (3, 'a', CREATE_VARIABLE('Normal', 0, 1))")

	cases := []struct {
		name, q  string
		wantRows int
		wantErr  string // the rules-off error; "incomparable" when empty
	}{
		// Hash pairing never enumerates the string-vs-number pair the
		// cross product errors on.
		{"hash-join-kind-mismatch",
			"SELECT mt.mv, nk.nv FROM mt, nk WHERE mt.k = nk.k", 1, ""},
		// Folding short-circuits on a later constant-false conjunct; the
		// reference evaluates the erroring conjunct first, per row.
		{"fold-after-erroring-conjunct",
			"SELECT mv FROM mt WHERE mv > 5 AND 1 = 0", 0, ""},
		// Pushdown empties the nk input, starving the final filter of the
		// pairs whose first conjunct errors.
		{"pushdown-starves-erroring-conjunct",
			"SELECT mt.mv FROM mt, nk WHERE mt.mv > 5 AND nk.nv = 'zz'", 0, ""},
		// The equality lookup for a numeric key never reads the string
		// cell the full scan errors on.
		{"eq-lookup-skips-kind-mismatch",
			"SELECT mv FROM mt WHERE k = 1", 1, ""},
		// A single-table scan's prefilter drops the row on k > 5 before
		// the filter reaches s + x, which cannot build an equation from a
		// string cell.
		{"single-table-prefilter-drops-erroring-row",
			"SELECT k FROM st WHERE s + x > 1 AND k > 5", 0, "non-numeric operand"},
	}
	for _, tc := range cases {
		wantErr := tc.wantErr
		if wantErr == "" {
			wantErr = "incomparable"
		}
		if _, err := ExecContext(WithHints(context.Background(), allRulesOff), db, tc.q); err == nil ||
			!strings.Contains(err.Error(), wantErr) {
			t.Fatalf("%s: rules-off reference did not raise the type error (got %v)", tc.name, err)
		}
		got := execHinted(t, db, tc.q, Hints{})
		if got.Len() != tc.wantRows {
			t.Fatalf("%s: planned returned %d rows, want %d:\n%s", tc.name, got.Len(), tc.wantRows, got)
		}
	}
}
