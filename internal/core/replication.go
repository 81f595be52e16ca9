// Replication hooks: the read-only mode a replica database serves under,
// the applier marking that lets the replication subsystem replay the
// primary's statement log through the ordinary SQL path, and the catalog
// version counter lag accounting reads.
//
// Replication reuses the durability design wholesale (see durability.go):
// a replica that applies the same (seed, ordered statement log) pair is
// byte-identical to the primary — not merely convergent — so the only new
// machinery core needs is a gate that keeps everything except the log
// applier from mutating the replica's catalog.
package core

import (
	"errors"
	"sort"
)

// ErrReadOnly is the sentinel wrapped by every catalog-mutating statement
// rejected on a read-only replica; match it with errors.Is. The wrapping
// error names the primary writes should be sent to.
var ErrReadOnly = errors.New("core: read-only replica")

// SetReadOnly marks the whole database (every handle of this catalog)
// read-only, recording the primary's address for rejection messages.
// Catalog-mutating SQL statements on non-applier handles fail with a
// wrapped ErrReadOnly; session-local SET statements and all queries still
// run. Call it once at replica boot, before serving traffic.
func (db *DB) SetReadOnly(primary string) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	db.cat.readOnly = true
	db.cat.primaryAddr = primary
}

// ReadOnlyPrimary reports whether the database is a read-only replica and,
// if so, the primary address writes should be redirected to.
func (db *DB) ReadOnlyPrimary() (primary string, readOnly bool) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	return db.cat.primaryAddr, db.cat.readOnly
}

// MarkApplier marks this handle as a replication applier: a handle that
// replays the primary's statement log and is therefore exempt from the
// read-only gate. Mark a handle before it is shared across goroutines
// (replica boot, or applier session-handle creation); the flag is
// handle-local and is not inherited by Session.
func (db *DB) MarkApplier() { db.applier = true }

// IsApplier reports whether MarkApplier was called on this handle.
func (db *DB) IsApplier() bool { return db.applier }

// CatalogVersion returns the catalog's mutation version: a process-local
// counter that increments once per catalog-mutating statement applied
// (committed, recovered, or replicated) and once per snapshot loaded.
// Comparing versions across processes is only meaningful relative to a
// common boot path; anything shared between processes (replication lag,
// for one) uses log sequence numbers, which are globally meaningful.
func (db *DB) CatalogVersion() uint64 { return db.cat.version.Load() }

// StatsScope is one named group of SHOW STATS rows contributed by a
// registered subsystem (e.g. the replication layer's "repl" scope).
type StatsScope struct {
	Scope  string
	Values map[string]float64
}

// RegisterStatsScope installs (or replaces) a subsystem's SHOW STATS
// contribution under the given scope name. fn is called on every SHOW
// STATS execution and must be safe for concurrent use.
func (db *DB) RegisterStatsScope(scope string, fn func() map[string]float64) {
	db.cat.scopeMu.Lock()
	defer db.cat.scopeMu.Unlock()
	if db.cat.scopes == nil {
		db.cat.scopes = map[string]func() map[string]float64{}
	}
	db.cat.scopes[scope] = fn
}

// StatsScopes evaluates every registered scope and returns the results
// sorted by scope name, so SHOW STATS output is stable across runs.
func (db *DB) StatsScopes() []StatsScope {
	db.cat.scopeMu.Lock()
	names := make([]string, 0, len(db.cat.scopes))
	fns := make([]func() map[string]float64, 0, len(db.cat.scopes))
	for n := range db.cat.scopes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fns = append(fns, db.cat.scopes[n])
	}
	db.cat.scopeMu.Unlock()
	out := make([]StatsScope, len(names))
	for i, n := range names {
		out[i] = StatsScope{Scope: n, Values: fns[i]()}
	}
	return out
}
