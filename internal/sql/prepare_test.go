package sql

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"pip/internal/ctable"
	"pip/internal/expr"
)

// --- Placeholder lexing/parsing ---

func TestLexPlaceholder(t *testing.T) {
	toks, err := Lex("SELECT ? FROM t WHERE x > ?")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tok := range toks {
		if tok.Kind == TokSymbol && tok.Text == "?" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("lexed %d placeholder tokens, want 2", n)
	}
}

func TestNumParams(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"SELECT a FROM t", 0},
		{"SELECT a FROM t WHERE a > ?", 1},
		{"SELECT ?, a + ? FROM t WHERE a > ? AND b < -?", 4},
		{"INSERT INTO t VALUES (?, ?), (1, ?)", 3},
		{"INSERT INTO t VALUES (CREATE_VARIABLE('Normal', ?, ?))", 2},
	}
	for _, tc := range cases {
		p, err := Prepare(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if p.NumInput() != tc.want {
			t.Fatalf("%s: NumInput = %d, want %d", tc.src, p.NumInput(), tc.want)
		}
	}
}

// --- Binding corpus ---

// TestBindLiteralTypes binds every literal kind through INSERT placeholders
// and reads the values back.
func TestBindLiteralTypes(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (f, i, s, e)")

	v := &expr.Variable{Key: expr.VarKey{ID: 77}}
	ins, err := Prepare("INSERT INTO t VALUES (?, ?, ?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ins.Exec(db,
		ctable.Float(2.5),
		ctable.Int(42),
		ctable.String_("hello"),
		ctable.Symbolic(expr.Add(expr.NewVar(v), expr.Const(1))),
	)
	if err != nil {
		t.Fatal(err)
	}

	out := mustExec(t, db, "SELECT f, i, s, e FROM t")
	if out.Len() != 1 {
		t.Fatalf("rows = %d", out.Len())
	}
	row := out.Tuples[0].Values
	if f, _ := row[0].AsFloat(); f != 2.5 {
		t.Fatalf("float column %v", row[0])
	}
	if row[1].Kind != ctable.KindInt || row[1].I != 42 {
		t.Fatalf("int column %v", row[1])
	}
	if row[2].Kind != ctable.KindString || row[2].S != "hello" {
		t.Fatalf("string column %v", row[2])
	}
	if !row[3].IsSymbolic() {
		t.Fatalf("expr column %v", row[3])
	}
}

// TestBindWhere binds a comparison bound and re-executes with different
// arguments, verifying prepare-once / bind-many semantics.
func TestBindWhere(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (name, v)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3)")

	p, err := Prepare("SELECT name FROM t WHERE v > ?")
	if err != nil {
		t.Fatal(err)
	}
	for bound, want := range map[float64]int{0: 3, 1.5: 2, 3: 0} {
		out, err := p.Exec(db, ctable.Float(bound))
		if err != nil {
			t.Fatalf("bound %v: %v", bound, err)
		}
		if out.Len() != want {
			t.Fatalf("bound %v: %d rows, want %d", bound, out.Len(), want)
		}
	}
}

// TestBindArity covers wrong-arity binding in both directions and unbound
// execution of a parameterized statement.
func TestBindArity(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")

	p, err := Prepare("SELECT v FROM t WHERE v > ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(db); !errors.Is(err, ErrBind) {
		t.Fatalf("too few args: %v", err)
	}
	if _, err := p.Exec(db, ctable.Float(1), ctable.Float(2)); !errors.Is(err, ErrBind) {
		t.Fatalf("too many args: %v", err)
	}
	// Unprepared execution of a statement containing placeholders.
	if _, err := Exec(db, "SELECT v FROM t WHERE v > ?"); !errors.Is(err, ErrBind) {
		t.Fatalf("unbound exec: %v", err)
	}
}

// TestBindCreateVariable binds placeholders inside CREATE_VARIABLE — both
// distribution parameters and the distribution name itself.
func TestBindCreateVariable(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")

	ins, err := Prepare("INSERT INTO t VALUES (CREATE_VARIABLE(?, ?, ?))")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ins.Exec(db, ctable.String_("Normal"), ctable.Float(7), ctable.Float(0.5)); err != nil {
		t.Fatal(err)
	}
	out := mustExec(t, db, "SELECT expectation(v) FROM t")
	if got := cell(t, out, 0, 0); math.Abs(got-7) > 1e-9 {
		t.Fatalf("expectation of bound Normal(7, 0.5) = %v", got)
	}
	// Non-string name is rejected.
	if _, err := ins.Exec(db, ctable.Float(3), ctable.Float(7), ctable.Float(0.5)); err == nil {
		t.Fatal("numeric distribution name accepted")
	}
}

// TestPreparedReuseDoesNotMutateAST re-executes one prepared statement with
// interleaved argument vectors; a binding that mutated the cached AST would
// leak earlier arguments into later executions.
func TestPreparedReuseDoesNotMutateAST(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)")

	p, err := Prepare("SELECT v + ? FROM t WHERE v > ?")
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Exec(db, ctable.Float(10), ctable.Float(2))
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Exec(db, ctable.Float(100), ctable.Float(0))
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 1 || cell(t, first, 0, 0) != 13 {
		t.Fatalf("first bind: %v", first)
	}
	if second.Len() != 3 || cell(t, second, 0, 0) != 101 {
		t.Fatalf("second bind: %v", second)
	}
	third, err := p.Exec(db, ctable.Float(10), ctable.Float(2))
	if err != nil {
		t.Fatal(err)
	}
	if third.Len() != 1 || cell(t, third, 0, 0) != 13 {
		t.Fatalf("third bind differs from first: %v", third)
	}
}

// --- Typed errors ---

func TestTypedErrors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")

	if _, err := Exec(db, "SELEC v FROM t"); !errors.Is(err, ErrParse) {
		t.Fatalf("syntax error: %v", err)
	}
	var pe *ParseError
	_, err := Exec(db, "SELECT v\nFROM t WHERE ^")
	if !errors.As(err, &pe) {
		t.Fatalf("no ParseError: %v", err)
	}
	if pe.Line != 2 || pe.Col < 13 {
		t.Fatalf("position line %d col %d: %v", pe.Line, pe.Col, pe)
	}
	if _, err := Exec(db, "SELECT v FROM missing"); !errors.Is(err, errUnknownTableSentinel(t)) {
		t.Fatalf("unknown table: %v", err)
	}
	if _, err := Exec(db, "SELECT nope FROM t"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("unknown column: %v", err)
	}
	if _, err := Exec(db, "SELECT v FROM t ORDER BY nope"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("unknown order-by column: %v", err)
	}
}

// errUnknownTableSentinel avoids importing core's sentinel at every use
// site above.
func errUnknownTableSentinel(t *testing.T) error {
	t.Helper()
	db := testDB(t)
	_, err := db.Table("definitely_missing")
	if err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	return errors.Unwrap(err)
}

// TestLineCol pins the offset-to-position conversion.
func TestLineCol(t *testing.T) {
	src := "ab\ncde\nf"
	cases := []struct{ off, line, col int }{
		{0, 1, 1}, {1, 1, 2}, {3, 2, 1}, {5, 2, 3}, {7, 3, 1}, {99, 3, 2},
	}
	for _, tc := range cases {
		l, c := LineCol(src, tc.off)
		if l != tc.line || c != tc.col {
			t.Fatalf("offset %d: %d:%d, want %d:%d", tc.off, l, c, tc.line, tc.col)
		}
	}
}

// --- Streaming cursors ---

// TestQueryContextStreams verifies a plain SELECT streams: rows arrive
// through the cursor without materializing, WHERE and LIMIT apply, and the
// cursor terminates with io.EOF.
func TestQueryContextStreams(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (name, v)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1), ('b', 2), ('c', 3), ('d', 4)")

	cur, err := QueryContext(context.Background(), db, "SELECT name FROM t WHERE v > ? LIMIT 2", ctable.Float(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok := cur.(*vecLimitOp); !ok {
		t.Fatalf("plain SELECT pipeline is %T, want streaming vecLimitOp", cur)
	}
	var names []string
	for {
		tp, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, tp.Values[0].S)
	}
	if len(names) != 2 || names[0] != "b" || names[1] != "c" {
		t.Fatalf("streamed %v", names)
	}
}

// TestQueryContextBlockingShapes verifies blocking SELECT shapes
// (aggregates, DISTINCT, ORDER BY) run on the same planned pipeline as
// streaming queries: the returned cursor is their physical operator, which
// materializes its own input internally on the first Next call.
func TestQueryContextBlockingShapes(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (2)")

	cases := []struct {
		q     string
		wants []float64
	}{
		{"SELECT expected_sum(v) FROM t", []float64{5}},
		{"SELECT DISTINCT v FROM t", []float64{1, 2}},
		{"SELECT v FROM t ORDER BY v DESC", []float64{2, 2, 1}},
	}
	for _, tc := range cases {
		cur, err := QueryContext(context.Background(), db, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if _, ok := cur.(operator); !ok {
			t.Fatalf("%s: produced %T, want a plan operator", tc.q, cur)
		}
		var got []float64
		for {
			tp, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			f, _ := tp.Values[0].AsFloat()
			got = append(got, f)
		}
		cur.Close()
		if len(got) != len(tc.wants) {
			t.Fatalf("%s: got %v, want %v", tc.q, got, tc.wants)
		}
		for i := range got {
			if got[i] != tc.wants[i] {
				t.Fatalf("%s: got %v, want %v", tc.q, got, tc.wants)
			}
		}
	}
}

// TestStreamMatchesMaterialized drains the streaming cursor and compares
// against the eager executor across join, filter, projection and per-row
// function shapes.
func TestStreamMatchesMaterialized(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE o (cust, shipto, price)")
	mustExec(t, db, "CREATE TABLE s (dest, dur)")
	mustExec(t, db, "INSERT INTO o VALUES ('j', 'NY', CREATE_VARIABLE('Normal', 100, 10)), ('b', 'LA', 40)")
	mustExec(t, db, "INSERT INTO s VALUES ('NY', CREATE_VARIABLE('Normal', 5, 2)), ('LA', 4)")

	for _, q := range []string{
		"SELECT * FROM o",
		"SELECT cust, price * 2 AS pp FROM o WHERE price > 50",
		"SELECT cust, dur FROM o, s WHERE shipto = dest",
		"SELECT cust, conf() FROM o, s WHERE shipto = dest AND dur > 4",
		"SELECT cust, expectation(price) FROM o WHERE price > 90",
	} {
		eager, err := Exec(db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cur, err := QueryContext(context.Background(), db, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var got []ctable.Tuple
		for {
			tp, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			got = append(got, tp.Clone())
		}
		cur.Close()
		if len(got) != eager.Len() {
			t.Fatalf("%s: streamed %d rows, eager %d", q, len(got), eager.Len())
		}
		for i := range got {
			for c := range got[i].Values {
				if got[i].Values[c].String() != eager.Tuples[i].Values[c].String() {
					t.Fatalf("%s row %d col %d: %s != %s", q, i, c,
						got[i].Values[c], eager.Tuples[i].Values[c])
				}
			}
			if got[i].Cond.String() != eager.Tuples[i].Cond.String() {
				t.Fatalf("%s row %d cond: %s != %s", q, i, got[i].Cond, eager.Tuples[i].Cond)
			}
		}
	}
}
