// Package app is the catalock consumer fixture: it sits outside the
// exempt internal/core and internal/ctable packages, so every touch of a
// catalog-live table is checked.
package app

import (
	"lockfix/internal/core"
	"lockfix/internal/ctable"
)

// scanLive ranges the raw tuple slice of a live table: flagged.
func scanLive(db *core.DB) int {
	tb, err := db.Table("x")
	if err != nil {
		return 0
	}
	n := 0
	for range tb.Tuples { // want `tb\.Tuples touches a catalog-live table`
		n++
	}
	return n
}

// lenLive calls the unlocked Len on a live table: flagged.
func lenLive(db *core.DB) int {
	tb := db.Materialize("x")
	return tb.Len() // want `tb\.Len touches a catalog-live table`
}

// appendLive mutates through an alias of a live table: the taint follows
// the assignment chain, flagged.
func appendLive(db *core.DB, row []ctable.Value) {
	tb := db.Materialize("x")
	t2 := tb
	t2.Append(row) // want `t2\.Append touches a catalog-live table`
}

// cloneLive copies a live table unlocked: flagged.
func cloneLive(db *core.DB) *ctable.Table {
	tb := db.Materialize("x")
	return tb.Clone() // want `tb\.Clone touches a catalog-live table`
}

// nameOK reads immutable post-creation state: accepted.
func nameOK(db *core.DB) string {
	tb := db.Materialize("x")
	return tb.Name
}

// snapshotOK reads through the locked accessor: accepted.
func snapshotOK(db *core.DB) int {
	tb := db.Materialize("x")
	return len(db.Snapshot(tb))
}

// snapshotEqOK reads through the keyed locked accessor: accepted.
func snapshotEqOK(db *core.DB, key ctable.Value) int {
	tb := db.Materialize("x")
	rows, cand := db.SnapshotEq(tb, 0, key)
	return len(rows) + len(cand)
}

// localOK builds its own table — not catalog-live, unrestricted.
func localOK(row []ctable.Value) int {
	t := &ctable.Table{Name: "tmp"}
	t.Append(row)
	return len(t.Tuples)
}

// snapshotCopyOK works on the snapshot copy, not the live table: accepted.
func snapshotCopyOK(db *core.DB) int {
	tb := db.Materialize("x")
	rows := db.Snapshot(tb)
	return len(rows)
}

// suppressedLen carries a justification: suppressed.
func suppressedLen(db *core.DB) int {
	tb := db.Materialize("x")
	//pipvet:allow catalock single-writer bootstrap path, no concurrent sessions yet
	return tb.Len()
}
