package sql

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
)

// failDB holds two small tables. The fourth row of a carries a string in v
// where every other row has a number, so a comparison or an arithmetic
// target over a.v fails at that row.
func failDB(t *testing.T) *core.DB {
	t.Helper()
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE a (k, v)")
	mustExec(t, db, "INSERT INTO a VALUES (1, 1), (2, 2), (3, 3), (4, 'x'), (5, 5)")
	mustExec(t, db, "CREATE TABLE b (k, w)")
	mustExec(t, db, "INSERT INTO b VALUES (1, 10), (2, 20), (2, 21), (3, 30), (4, 40)")
	return db
}

// planFor lowers a SELECT with ANALYZE counters on.
func planFor(t *testing.T, db *core.DB, q string) *physPlan {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planSelect(newExecEnv(context.Background(), db, nil), st.(*SelectStmt), true)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// errProbe is the failure failingProbe injects.
var errProbe = errors.New("probe side failed")

// failingProbe passes its operator's first batch through and then fails,
// as a probe input that breaks after the join has paired some of its rows.
type failingProbe struct {
	operator
	pulled bool
}

// NextBatch hands out the wrapped operator's first batch, then errProbe.
func (f *failingProbe) NextBatch(max int) (*ctable.Batch, error) {
	if f.pulled {
		return nil, errProbe
	}
	f.pulled = true
	return f.operator.(interface {
		NextBatch(int) (*ctable.Batch, error)
	}).NextBatch(max)
}

// readToFailure reads a plan's root until the first error: one NextBatch(max)
// at a time, or row by row through the Next facade when max is 0. It returns
// column 0 of the rows that arrived, the error that ended them and what the
// call after that returned.
func readToFailure(plan *physPlan, max int) (keys []float64, failure, after error) {
	read := func() error {
		if max == 0 {
			row, err := plan.root.Next()
			if err == nil {
				f, _ := row.Values[0].AsFloat()
				keys = append(keys, f)
			}
			return err
		}
		b, err := plan.root.NextBatch(max)
		if err == nil {
			vals := make([]ctable.Value, len(b.Cols))
			for k := 0; k < b.Len(); k++ {
				b.GatherRow(k, vals)
				f, _ := vals[0].AsFloat()
				keys = append(keys, f)
			}
		}
		return err
	}
	for i := 0; failure == nil && i < 100; i++ {
		failure = read()
	}
	return keys, failure, read()
}

// TestEmitThenFail pins the contract every operator keeps when a row fails
// inside a batch: the rows before it arrive, then the error, then io.EOF,
// and EXPLAIN ANALYZE rows= counts only the rows that were emitted. Each
// failure is read batch by batch, at one row and at a full batch per pull,
// and through the Next facade.
func TestEmitThenFail(t *testing.T) {
	db := failDB(t)
	cases := []struct {
		name, q string
		probe   bool // fail the hash join's probe input after its first batch
		keys    []float64
		fail    string
		rows    map[string]int64 // emitted rows of these operators
	}{
		{"filter", "SELECT k FROM a WHERE v > 0", false,
			[]float64{1, 2, 3}, "incomparable values x", map[string]int64{"Project": 3, "Filter": 3}},
		{"project", "SELECT k, v * 2 FROM a", false,
			[]float64{1, 2, 3}, "non-numeric operand x", map[string]int64{"Project": 3}},
		{"join", "SELECT a.k, b.w FROM a, b WHERE a.k = b.k", true,
			[]float64{1, 2, 2, 3, 4}, errProbe.Error(), map[string]int64{"Project": 5, "Filter": 5, "HashJoin": 5}},
	}
	for _, tc := range cases {
		for _, max := range []int{0, 1, vecBatchSize} {
			plan := planFor(t, db, tc.q)
			if tc.probe {
				injectProbeFailure(t, plan.root)
			}
			keys, failure, after := readToFailure(plan, max)
			if !slices.Equal(keys, tc.keys) {
				t.Errorf("%s (max %d): rows %v arrived, want %v", tc.name, max, keys, tc.keys)
			}
			if failure == io.EOF || failure == nil || !strings.Contains(failure.Error(), tc.fail) {
				t.Errorf("%s (max %d): rows ended with %v, want %q", tc.name, max, failure, tc.fail)
			}
			if after != io.EOF {
				t.Errorf("%s (max %d): the pull after the error returned %v, want io.EOF", tc.name, max, after)
			}
			node := toPlanNode(plan.root, true)
			for n := node; n != nil; n = firstChild(n) {
				if want, ok := tc.rows[n.Op]; ok && n.Rows != want {
					t.Errorf("%s (max %d): %s rows=%d, want %d:\n%s", tc.name, max, n.Op, n.Rows, want, node)
				}
			}
			if err := plan.root.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// injectProbeFailure wraps the probe input of the plan's hash join.
func injectProbeFailure(t *testing.T, root operator) {
	t.Helper()
	for op := root; ; {
		if j, ok := op.(*vecJoinOp); ok {
			j.left = &failingProbe{operator: j.left}
			return
		}
		kids := op.base().kids
		if len(kids) == 0 {
			t.Fatal("plan has no join")
		}
		op = kids[0]
	}
}

func firstChild(n *PlanNode) *PlanNode {
	if len(n.Children) == 0 {
		return nil
	}
	return n.Children[0]
}

// executeSpans counts the "execute" spans of the last planned statement.
func executeSpans(db *core.DB) int {
	n := 0
	for _, ph := range db.LastQuery().Phases() {
		if ph.Name == "execute" {
			n++
		}
	}
	return n
}

// TestStreamExecutePhaseOnce holds a SELECT to one "execute" span in its
// trace however its cursor ends: drained to io.EOF, ended by an error, or
// closed early. The eager path records one as well.
func TestStreamExecutePhaseOnce(t *testing.T) {
	db := failDB(t)
	ends := []struct {
		name, q string
		read    int // rows to read before Close; -1 reads to the end
		open    int // execute spans before Close
	}{
		{"drained", "SELECT k FROM a WHERE k > 0", -1, 1},
		{"failed", "SELECT k FROM a WHERE v > 0", -1, 1},
		{"closed early", "SELECT k FROM a WHERE k > 0", 1, 0},
	}
	for _, e := range ends {
		cur, err := QueryContext(context.Background(), db, e.q)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; e.read < 0 || n < e.read; n++ {
			if _, err := cur.Next(); err != nil {
				break
			}
		}
		if got := executeSpans(db); got != e.open {
			t.Errorf("%s: %d execute spans before Close, want %d", e.name, got, e.open)
		}
		cur.Close()
		cur.Close()
		if _, err := cur.Next(); err != io.EOF {
			t.Errorf("%s: Next after Close = %v, want io.EOF", e.name, err)
		}
		if got := executeSpans(db); got != 1 {
			t.Errorf("%s: %d execute spans after Close, want 1", e.name, got)
		}
	}
	if _, err := Exec(db, "SELECT k FROM a WHERE k > 0"); err != nil {
		t.Fatal(err)
	}
	if got := executeSpans(db); got != 1 {
		t.Errorf("eager SELECT: %d execute spans, want 1", got)
	}
}

// foreignCursor is a Cursor this package did not return.
type foreignCursor struct{}

func (foreignCursor) Columns() []string            { return nil }
func (foreignCursor) Next() (*ctable.Tuple, error) { return nil, io.EOF }
func (foreignCursor) Close() error                 { return nil }

// TestStatementCursors reads every kind of statement through QueryContext:
// a cursor keeps its statement's columns (none for DDL and INSERT) and
// rows, and Samples reports the statement's own samples — none for DDL,
// INSERT, SHOW STATS and a plain EXPLAIN — and -1 for a cursor from
// elsewhere.
func TestStatementCursors(t *testing.T) {
	db := testDB(t)
	const sel = "SELECT conf() FROM s WHERE v > 0.3 AND v * v > 0.2"
	cases := []struct {
		q    string
		cols []string
		rows func(n int) bool
	}{
		{"CREATE TABLE s (k, v)", nil, func(n int) bool { return n == 0 }},
		{"INSERT INTO s VALUES (1, CREATE_VARIABLE('Uniform', 0, 1)), (2, 0.5)", nil, func(n int) bool { return n == 0 }},
		{"SHOW STATS", []string{"scope", "name", "value"}, func(n int) bool { return n > 10 }},
		{"EXPLAIN " + sel, []string{"QUERY PLAN"}, func(n int) bool { return n == 3 }},
		{sel, []string{"conf"}, func(n int) bool { return n == 2 }},
	}
	for _, tc := range cases {
		before := db.Stats().Sampler.Snapshot().Samples
		cur, err := QueryContext(context.Background(), db, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if got := cur.Columns(); !slices.Equal(got, tc.cols) || (got == nil) != (tc.cols == nil) {
			t.Errorf("%s: columns %q, want %q", tc.q, got, tc.cols)
		}
		var lines []string
		for {
			row, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			lines = append(lines, fmt.Sprint(row.Values))
		}
		if !tc.rows(len(lines)) {
			t.Errorf("%s: %d rows: %q", tc.q, len(lines), lines)
		}
		drawn := db.Stats().Sampler.Snapshot().Samples - before
		if got := Samples(cur); got != drawn || (tc.q == sel) != (drawn > 0) {
			t.Errorf("%s: Samples = %d, the statement drew %d", tc.q, got, drawn)
		}
		cur.Close()
	}
	if got := Samples(foreignCursor{}); got != -1 {
		t.Errorf("Samples of a foreign cursor = %d, want -1", got)
	}
}

// BenchmarkScanStream streams the scan-stream workload's two statements
// over scanStreamDB, each prepared once, through QueryContext and Next,
// cycling through the workload's keys; ns/row is the time per streamed row,
// planning included.
func BenchmarkScanStream(b *testing.B) {
	db := scanStreamDB(b)
	ctx := context.Background()
	for _, st := range []struct{ name, text string }{
		{"filter-project", "SELECT okey, price*1.08 FROM orders WHERE price > 250 AND okey > ?"},
		{"hash-join", "SELECT o.okey, c.price, o.price FROM orders o, customers c WHERE o.cust = c.cust AND o.okey > ?"},
	} {
		b.Run(st.name, func(b *testing.B) {
			p, err := Prepare(st.text)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			rows := 0
			for i := 0; i < b.N; i++ {
				cur, err := p.QueryContext(ctx, db, ctable.Int(int64(1000+150*(i%16))))
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := cur.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
					rows++
				}
				cur.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(rows, 1)), "ns/row")
		})
	}
}
