// Durability hooks: the statement-commit choke point every catalog-mutating
// SQL statement passes through, and the MutationLog interface a write-ahead
// statement log (internal/wal) plugs into it.
//
// The design exploits the engine's core asset — determinism. A catalog is a
// pure function of the serialized sequence of mutating statements applied to
// it: DDL and DML never consult the sampler, and CREATE_VARIABLE allocates
// identifiers from a counter in statement order. Logging that sequence (and
// replaying it on a fresh database) therefore reconstructs the catalog
// byte-for-byte, including the random-variable allocator, so recovered and
// replicated instances answer every query bit-identically to the original.
// The one obligation is serialization: variable allocation inside one
// statement must not interleave with another statement's, which is exactly
// what the commit lock below guarantees whenever a log is attached.
package core

import (
	"errors"
	"fmt"

	"pip/internal/ctable"
)

// RootSessionID is the session identifier of the database handle returned
// by NewDB. Handles created by Session get successive ids.
const RootSessionID uint64 = 1

// ErrUnloggedMutation reports a catalog-mutating statement that cannot be
// made durable because its source text is unknown (a statement executed
// from its syntax tree alone) or its bound arguments are symbolic. It only
// fires when a mutation log is attached; without one, such statements
// execute normally.
var ErrUnloggedMutation = errors.New("core: statement mutates the catalog but cannot be logged")

// Mutation describes one catalog-mutating SQL statement as the write-ahead
// statement log records it: the statement text with its bound placeholder
// arguments, the session it executed in with that session's world seed (the
// seed context replay needs to reconstruct per-session settings), and
// whether execution returned an error. Failed statements are logged too:
// a statement may apply partial effects (rows appended, variables
// allocated) before failing, and because failures are deterministic,
// replaying the statement reproduces exactly those effects.
type Mutation struct {
	// Session identifies the issuing handle (RootSessionID for the root).
	Session uint64
	// Seed is the issuing session's world seed at commit time. Replay uses
	// it to materialize the session's handle with its original seed: a
	// handle created mid-replay would otherwise inherit root configuration
	// that may already include SET statements the original session, created
	// earlier, never saw.
	Seed uint64
	// Text is the statement source.
	Text string
	// Args are the bound ? placeholder arguments, in order.
	Args []ctable.Value
	// Failed records that execution returned an error.
	Failed bool
}

// MutationLog is the write-ahead statement log attached to a database.
// AppendMutation must make the record durable (per its own fsync policy)
// before returning: Commit acknowledges a statement to the caller only
// after AppendMutation succeeds, so acknowledged writes survive a crash.
type MutationLog interface {
	AppendMutation(m Mutation) error
}

// SetMutationLog attaches (or, with nil, detaches) the statement log shared
// by every handle of this database. Attach it after recovery and before
// serving traffic: statements replayed during recovery must not re-log.
func (db *DB) SetMutationLog(l MutationLog) {
	db.cat.commitMu.Lock()
	defer db.cat.commitMu.Unlock()
	db.cat.mlog = l
}

// SessionID returns this handle's session identifier (RootSessionID for
// the handle NewDB returned).
func (db *DB) SessionID() uint64 { return db.sid }

// EnsureSessionFloor bumps the session-id allocator so future handles get
// ids strictly greater than floor. Recovery calls it with the largest
// session id seen in the log, keeping post-restart records distinguishable
// from pre-crash ones.
func (db *DB) EnsureSessionFloor(floor uint64) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	if db.cat.nextSession <= floor {
		db.cat.nextSession = floor + 1
	}
}

// RunExclusive runs fn while holding the statement-commit lock: no mutating
// statement is mid-flight while fn executes, and none can start until it
// returns. The snapshot writer uses it to capture a catalog state that sits
// exactly on a log-record boundary.
func (db *DB) RunExclusive(fn func() error) error {
	db.cat.commitMu.Lock()
	defer db.cat.commitMu.Unlock()
	return fn()
}

// Commit is the statement-commit choke point: the SQL layer routes every
// catalog-mutating statement (DDL, DML, SET) through it. Without an
// attached log it simply runs apply. With one, it serializes the statement
// against all other mutations (so variable allocation order matches log
// order), runs apply, appends the record, and only then returns — so a
// statement is acknowledged only once it is durable. A log-append failure
// is returned even if apply succeeded: the caller must not treat the write
// as committed.
func (db *DB) Commit(text string, args []ctable.Value, apply func() error) error {
	cat := db.cat
	cat.commitMu.Lock()
	l := cat.mlog
	if l == nil {
		// No log: keep today's concurrency (statements interleave freely,
		// bounded only by the catalog lock's per-operation serialization).
		cat.commitMu.Unlock()
		err := apply()
		cat.version.Add(1)
		return err
	}
	defer cat.commitMu.Unlock()
	if text == "" {
		return fmt.Errorf("%w: no statement text (use the text-based Exec surface)", ErrUnloggedMutation)
	}
	// Unloggable statements must be rejected before apply runs: once the
	// catalog has mutated, a failure to log it leaves state the log cannot
	// reproduce, and the store fail-stops to protect replay.
	for i, v := range args {
		if v.IsSymbolic() {
			return fmt.Errorf("%w: argument %d is symbolic (arguments must bind literal scalars)", ErrUnloggedMutation, i+1)
		}
	}
	applyErr := apply()
	cat.version.Add(1)
	m := Mutation{
		Session: db.sid,
		Seed:    db.Config().WorldSeed,
		Text:    text,
		Args:    args,
		Failed:  applyErr != nil,
	}
	if logErr := l.AppendMutation(m); logErr != nil {
		if applyErr != nil {
			return errors.Join(applyErr, logErr)
		}
		return fmt.Errorf("core: statement applied but not durable: %w", logErr)
	}
	return applyErr
}
