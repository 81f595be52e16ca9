// Package sql is the walcommit consumer fixture: the import-path suffix
// internal/sql puts it in the statement-exec scope.
package sql

import "walfix/internal/core"

// execGood routes the mutation through the Commit hook: accepted.
func execGood(db *core.DB, src string) error {
	run := func() error { return execStmt(db) }
	return db.Commit(src, nil, run)
}

// execStmt is the shared apply step; it is in M (it mutates) but every
// caller is disciplined, so it is accepted.
func execStmt(db *core.DB) error {
	return db.Register("t")
}

// execDirectGood passes the literal straight to the hook: accepted.
func execDirectGood(db *core.DB, src string) error {
	return db.Commit(src, nil, func() error {
		return db.Drop("t")
	})
}

// exclusiveGood uses the RunExclusive hook: accepted.
func exclusiveGood(db *core.DB) error {
	return db.RunExclusive(func() error {
		return db.Register("t")
	})
}

// probeOK builds and reads the equality index outside any hook: the index
// is derived state the log never witnesses, so this is accepted.
func probeOK(db *core.DB) int {
	return len(db.SnapshotEq("t", 0, 1))
}

// BadExec is exported and reaches mutations without the hook: flagged.
func BadExec(db *core.DB) error { // want `exported function BadExec reaches catalog mutations`
	return db.Register("t")
}

// orphanMutate is unexported, mutating, and nothing calls it: flagged.
func orphanMutate(db *core.DB) error { // want `nothing in the package calls it`
	return db.Drop("t")
}

// indirect joins M by calling execStmt outside any hook; as the top of an
// undisciplined chain with no callers it is flagged.
func indirect(db *core.DB) error { // want `nothing in the package calls it`
	return execStmt(db)
}

// execFast invokes the commit closure directly on the fast path: flagged.
func execFast(db *core.DB, src string, mut bool) error {
	run := func() error { return execStmt(db) }
	if mut {
		return db.Commit(src, nil, run)
	}
	return run() // want `commit closure invoked directly`
}

// execFastOK is the same shape with the documented justification.
func execFastOK(db *core.DB, src string, mut bool) error {
	run := func() error { return execStmt(db) }
	if mut {
		return db.Commit(src, nil, run)
	}
	//pipvet:allow walcommit non-mutating statements need no log entry
	return run()
}

// applyReplay is reached only by the recovery replayer, which already
// holds the commit path; the mark vouches for it.
//
//pipvet:commitpath recovery replay applies statements under Commit
func applyReplay(db *core.DB) error {
	return db.Register("t")
}

// handler leaks an M member as a value: flagged at the capture.
func handler() func(*core.DB) error {
	h := execStmt // want `handler captures execStmt, which reaches catalog mutations`
	return h
}
