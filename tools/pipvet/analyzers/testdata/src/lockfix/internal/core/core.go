// Package core fakes the real catalog package for the catalock fixture:
// a DB whose Table/Materialize accessors hand out catalog-live tables.
package core

import "lockfix/internal/ctable"

// DB is the fixture catalog.
type DB struct {
	tables map[string]*ctable.Table
}

// Table returns the live catalog table (catalock taint source).
func (db *DB) Table(name string) (*ctable.Table, error) {
	return db.tables[name], nil
}

// Materialize returns a live derived table (catalock taint source).
func (db *DB) Materialize(name string) *ctable.Table {
	return db.tables[name]
}

// Snapshot copies the tuples under the catalog lock (the sanctioned read).
func (db *DB) Snapshot(t *ctable.Table) [][]ctable.Value {
	out := make([][]ctable.Value, len(t.Tuples))
	copy(out, t.Tuples)
	return out
}

// SnapshotEq copies the tuples and probes the equality index under the
// catalog lock (the sanctioned keyed read).
func (db *DB) SnapshotEq(t *ctable.Table, col int, key ctable.Value) ([][]ctable.Value, []int) {
	return db.Snapshot(t), nil
}

// AppendRow appends under the catalog lock (the sanctioned write).
func (db *DB) AppendRow(name string, row []ctable.Value) error {
	t, _ := db.Table(name)
	t.Append(row)
	return nil
}
