// Package core fakes the real catalog package for the walcommit fixture:
// a DB with the Commit/RunExclusive hooks and the guarded mutating methods.
package core

// DB is the fixture catalog.
type DB struct{}

// Commit is the durability hook: logs the statement, then applies.
func (db *DB) Commit(text string, args []any, apply func() error) error {
	return apply()
}

// RunExclusive runs fn under the commit lock without logging.
func (db *DB) RunExclusive(fn func() error) error { return fn() }

// Register is a guarded catalog mutation.
func (db *DB) Register(name string) error { return nil }

// Drop is a guarded catalog mutation.
func (db *DB) Drop(name string) error { return nil }

// AppendRow is a guarded catalog mutation.
func (db *DB) AppendRow(name string, row []float64) error { return nil }

// SnapshotEq reads rows through the equality index, building it on first
// use: derived state, not a guarded mutation.
func (db *DB) SnapshotEq(name string, col int, key float64) []int { return nil }
