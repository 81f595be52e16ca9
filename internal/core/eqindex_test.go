package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"pip/internal/ctable"
	"pip/internal/expr"
)

// wantEq restates the equality lookup's contract row by row: the rows of
// column col a key's comparison could hold on (numbers by value, strings by
// content) plus every row no key can decide (symbolic, NULL, bool, NaN).
func wantEq(tuples []ctable.Tuple, col int, key ctable.Value) []int {
	var out []int
	for i, tp := range tuples {
		v := tp.Values[col]
		switch v.Kind {
		case ctable.KindString:
			if key.Kind == ctable.KindString && key.S == v.S {
				out = append(out, i)
			}
		case ctable.KindInt, ctable.KindFloat:
			f, _ := v.AsFloat()
			k, ok := key.AsFloat()
			if f != f || (ok && f == k) {
				out = append(out, i)
			}
		default:
			out = append(out, i)
		}
	}
	return out
}

// walkEq drains a candidate iterator.
func walkEq(c EqCandidates) []int {
	var out []int
	for r := c.Next(); r >= 0; r = c.Next() {
		out = append(out, r)
	}
	return out
}

// probe runs one SnapshotEq and checks its candidates against wantEq over
// the snapshot it returned.
func probe(t *testing.T, db *DB, tb *ctable.Table, col int, key ctable.Value) []int {
	t.Helper()
	tuples, c := db.SnapshotEq(tb, col, key)
	n := c.Len()
	got := walkEq(c)
	if want := wantEq(tuples, col, key); !slices.Equal(got, want) || n != len(want) {
		t.Fatalf("key %v over %d rows: candidates %v (Len %d), want %v", key, len(tuples), got, n, want)
	}
	return got
}

// mixedTable registers table name (k, i) whose k cells cover every kind the
// lookup distinguishes; i is the row number.
func mixedTable(t *testing.T, db *DB, name string) *ctable.Table {
	t.Helper()
	v, err := db.CreateVariable("Normal", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := []ctable.Value{
		ctable.Int(1), ctable.Float(1), ctable.Float(math.Copysign(0, -1)), ctable.Int(0),
		ctable.Float(math.NaN()), ctable.String_("1"), ctable.String_("a"), ctable.Null(),
		ctable.Bool(true), ctable.Symbolic(expr.NewVar(v)), ctable.Float(2.5), ctable.Int(1),
		ctable.Int(1<<53 + 1), ctable.String_("a"),
	}
	tb := ctable.New(name, "k", "i")
	db.Register(tb)
	for i, c := range cells {
		if err := db.AppendRow(tb, ctable.NewTuple(c, ctable.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestSnapshotEqCandidates pins what a candidate is: numeric keys match by
// AsFloat value (1 = 1.0, -0 = +0, 2^53+1 rounds onto 2^53), strings by
// content, and symbolic, NULL, bool and NaN cells are candidates for every
// key — in ascending row order.
func TestSnapshotEqCandidates(t *testing.T) {
	db := testDB()
	tb := mixedTable(t, db, "m")
	keys := []ctable.Value{
		ctable.Int(1), ctable.Float(1), ctable.Float(0), ctable.Float(math.Copysign(0, -1)),
		ctable.String_("1"), ctable.String_("a"), ctable.Float(2.5), ctable.Int(7),
		ctable.Float(1 << 53), ctable.String_("zz"),
	}
	for _, k := range keys {
		probe(t, db, tb, 0, k)
	}
	if got := probe(t, db, tb, 0, ctable.Int(1)); !slices.Equal(got, []int{0, 1, 4, 7, 8, 9, 11}) {
		t.Fatalf("k = 1 candidates %v", got)
	}
	for _, k := range []ctable.Value{ctable.Float(math.NaN()), ctable.Null(), ctable.Bool(true), tb.Tuples[9].Values[0]} {
		if Probeable(k) {
			t.Errorf("%v is probeable", k)
		}
	}
}

// TestEqIndexExtendsAcrossAppends: rows appended between probes are indexed
// by extending the same index, and a probe taken before the append keeps
// yielding exactly its own snapshot's candidates.
func TestEqIndexExtendsAcrossAppends(t *testing.T) {
	db := testDB()
	tb := mixedTable(t, db, "m")
	key := ctable.Int(1)
	probe(t, db, tb, 0, key)
	ix := db.cat.eq[tb][0]
	before, early := db.SnapshotEq(tb, 0, key)

	for _, c := range []ctable.Value{ctable.Int(1), ctable.Float(math.NaN()), ctable.String_("a"), ctable.Float(1)} {
		if err := db.AppendRow(tb, ctable.NewTuple(c, ctable.Int(0))); err != nil {
			t.Fatal(err)
		}
	}
	got := probe(t, db, tb, 0, key)
	if db.cat.eq[tb][0] != ix {
		t.Fatal("appends rebuilt the index instead of extending it")
	}
	if ix.covered != len(tb.Tuples) || len(ix.next) != len(tb.Tuples) {
		t.Fatalf("index covers %d rows (%d links) of %d", ix.covered, len(ix.next), len(tb.Tuples))
	}
	if n := len(tb.Tuples); !slices.Equal(got[len(got)-3:], []int{n - 4, n - 3, n - 1}) {
		t.Fatalf("appended candidates %v", got)
	}
	if old := walkEq(early); !slices.Equal(old, wantEq(before, 0, key)) {
		t.Fatalf("pre-append probe yields %v after the append", old)
	}
}

// TestEqIndexLifetime: Drop, Register over an existing name and
// DecodeCatalog each discard the indexes of the tables they remove, so a
// table re-created under the same name is never served a stale index, and
// a table no longer in the catalog leaves nothing behind when probed.
func TestEqIndexLifetime(t *testing.T) {
	db := testDB()
	old := mixedTable(t, db, "m")
	probe(t, db, old, 0, ctable.Int(1))

	db.Drop("M")
	if _, ok := db.cat.eq[old]; ok {
		t.Fatal("Drop kept the dropped table's index")
	}
	probe(t, db, old, 0, ctable.Int(1)) // a plan that bound the table before the DROP
	if len(db.cat.eq) != 0 {
		t.Fatal("probing a dropped table cached an index for it")
	}

	fresh := ctable.New("m", "k", "i")
	db.Register(fresh)
	if err := db.AppendRow(fresh, ctable.NewTuple(ctable.Int(1), ctable.Int(0))); err != nil {
		t.Fatal(err)
	}
	if got := probe(t, db, fresh, 0, ctable.Int(1)); !slices.Equal(got, []int{0}) {
		t.Fatalf("re-created table served %v", got)
	}
	db.Register(ctable.New("m", "k", "i"))
	if _, ok := db.cat.eq[fresh]; ok {
		t.Fatal("Register kept the replaced table's index")
	}

	// A catalog load replaces every table: indexes built on the old ones go.
	src := testDB()
	loaded := mixedTable(t, src, "m")
	img := encode(t, src)
	probe(t, db, fresh, 0, ctable.Int(1))
	if err := db.DecodeCatalog(bytes.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	if len(db.cat.eq) != 0 {
		t.Fatal("DecodeCatalog kept indexes of the replaced catalog")
	}
	tb, err := db.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := probe(t, db, tb, 0, ctable.Int(1)), wantEq(loaded.Tuples, 0, ctable.Int(1)); !slices.Equal(got, want) {
		t.Fatalf("after load: %v, want %v", got, want)
	}
}

// TestEqIndexConcurrentProbes runs writers appending to an indexed table
// against readers probing it (run it under -race): every probe must return
// exactly the matching rows of the consistent prefix it snapshotted.
func TestEqIndexConcurrentProbes(t *testing.T) {
	db := testDB()
	tb := ctable.New("c", "k", "w")
	db.Register(tb)
	cell := func(i int) ctable.Value {
		switch i % 11 {
		case 3:
			return ctable.Float(math.NaN())
		case 7:
			return ctable.String_(fmt.Sprint(i % 3))
		default:
			return ctable.Int(int64(i % 5))
		}
	}
	const writers, rows, readers, probes = 2, 1500, 3, 300
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				if err := db.AppendRow(tb, ctable.NewTuple(cell(i), ctable.Int(int64(w)))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < probes; p++ {
				key := ctable.Int(int64((p + r) % 5))
				if p%4 == 0 {
					key = ctable.String_(fmt.Sprint(p % 3))
				}
				tuples, c := db.SnapshotEq(tb, 0, key)
				if got, want := walkEq(c), wantEq(tuples, 0, key); !slices.Equal(got, want) {
					errs <- fmt.Errorf("probe %d of %v over %d rows: %d candidates, want %d", p, key, len(tuples), len(got), len(want))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	probe(t, db, tb, 0, ctable.Int(2))
}
