package sql

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
)

// symbolicSuppliersDB loads 100 suppliers whose two cost cells are Normal
// variables, keyed supp = 0..99.
func symbolicSuppliersDB(t testing.TB) *core.DB {
	t.Helper()
	db := core.NewDB(sampler.DefaultConfig())
	if _, err := Exec(db, "CREATE TABLE suppliers (supp, nation, manuf, ship)"); err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 100)
	for i := range rows {
		rows[i] = fmt.Sprintf("(%d, %d, CREATE_VARIABLE('Normal', %d, 2), CREATE_VARIABLE('Normal', 3, 1))", i, i%5, 5+i%7)
	}
	if _, err := Exec(db, "INSERT INTO suppliers VALUES "+strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSymbolicRowAllocs holds a conf() statement over a symbolic table to
// what its surviving rows cost: the scan's prefilter drops the rows that
// supp > ? rejects before any condition atom is built for them, so a key
// that keeps no row costs about what planning does, and the order of the
// two conjuncts does not change the count. The ceilings are the counts on
// go1.24 linux/amd64 (771 and 83) plus about 5 %; before the prefilter ran
// on single-table scans the same statement made 1 737 and 569.
func TestSymbolicRowAllocs(t *testing.T) {
	db := symbolicSuppliersDB(t)
	for _, tc := range []struct {
		key     int
		rows    int
		ceiling float64
	}{
		{59, 40, 810},
		{99, 0, 90},
	} {
		var counts [2]float64
		for i, q := range []string{
			"SELECT supp, conf() FROM suppliers WHERE manuf + ship > 12 AND supp > ?",
			"SELECT supp, conf() FROM suppliers WHERE supp > ? AND manuf + ship > 12",
		} {
			p, err := Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			arg := ctable.Int(int64(tc.key))
			run := func() int {
				cur, err := p.QueryContext(context.Background(), db, arg)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for {
					if _, err := cur.Next(); err == io.EOF {
						break
					} else if err != nil {
						t.Fatal(err)
					}
					n++
				}
				if err := cur.Close(); err != nil {
					t.Fatal(err)
				}
				return n
			}
			if n := run(); n != tc.rows {
				t.Fatalf("%s at %d: %d rows, want %d", q, tc.key, n, tc.rows)
			}
			counts[i] = testing.AllocsPerRun(20, func() { run() })
			t.Logf("%s at %d: %v allocations", q, tc.key, counts[i])
			if counts[i] > tc.ceiling {
				t.Errorf("%s at %d: %v allocations, ceiling %v", q, tc.key, counts[i], tc.ceiling)
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("key %d: %v allocations with the symbolic conjunct first, %v with it last", tc.key, counts[0], counts[1])
		}
	}
}
