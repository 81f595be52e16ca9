package wal

import (
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/sql"
)

// TestEqLookupAfterRecovery: a database that has already served equality
// lookups on a table recovers a snapshot plus a WAL suffix holding a table
// of the same name. The probes after recovery must answer from the
// recovered rows (snapshot load discards the old index, replay extends the
// new one), and keep doing so as the recovered table grows.
func TestEqLookupAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	db := newDB(5)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE orders (cust, price)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', 1), ('Ann', 2)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', 3)")
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	replica := newDB(5)
	mustExec(t, replica, "CREATE TABLE orders (cust, price)")
	mustExec(t, replica, "INSERT INTO orders VALUES ('Joe', 99), ('Joe', 98)")
	joePrices(t, replica, "99.0 98.0")
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 2 || info.Replayed != 1 {
		t.Fatalf("expected snapshot@2 + 1 replayed, got %+v", info)
	}
	joePrices(t, replica, "1.0 3.0")
	mustExec(t, replica, "INSERT INTO orders VALUES ('Joe', 4), ('Kim', 5)")
	joePrices(t, replica, "1.0 3.0 4.0")
}

// joePrices runs the point read WHERE cust = 'Joe', checks it was planned
// as an equality lookup, and compares the prices it returns.
func joePrices(t *testing.T, db *core.DB, want string) {
	t.Helper()
	const q = "SELECT price FROM orders WHERE cust = 'Joe'"
	plan, err := sql.Explain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "[key: cust = 'Joe']") {
		t.Fatalf("point read not planned as an equality lookup:\n%s", plan)
	}
	out, err := sql.Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tp := range out.Tuples {
		got = append(got, tp.Values[0].String())
	}
	if strings.Join(got, " ") != want {
		t.Fatalf("cust = 'Joe' returned %v, want %s", got, want)
	}
}
