// Applier: the replay engine shared by crash recovery and replication. It
// re-executes logged statements, in sequence order, through the ordinary
// SQL layer — the same path that produced them — and verifies the
// determinism contract as it goes: a statement whose outcome contradicts
// the log stops the applier with ErrReplayDiverged rather than letting a
// silently wrong catalog serve reads.
package wal

import (
	"context"
	"errors"
	"fmt"

	"pip/internal/core"
	"pip/internal/sql"
)

// Applier replays log records onto a database. Records must arrive in
// sequence order with no gaps (ErrGap otherwise); each logged session gets
// its own handle, under its logged id, so per-session SET statements do not
// clobber the root configuration, mirroring how the statements originally
// executed. Not safe for concurrent use; one applier owns the replay stream.
type Applier struct {
	root    *core.DB
	handles map[uint64]*core.DB
	applied uint64
	maxSess uint64
}

// NewApplier prepares replay onto root of the records after applied (the
// snapshot coverage recovery loaded, or 0 for an empty catalog): the first
// Apply must carry sequence number applied+1. root is used directly for
// root-session records, so root SET statements land on the configuration
// every future session inherits.
func NewApplier(root *core.DB, applied uint64) *Applier {
	return &Applier{
		root:    root,
		handles: map[uint64]*core.DB{core.RootSessionID: root},
		applied: applied,
	}
}

// MaxSession returns the largest session id seen so far (0 if none beyond
// the root). The session-id allocator is bumped past it as records apply,
// so handles created after replay never collide with logged sessions.
func (a *Applier) MaxSession() uint64 { return a.maxSess }

// Apply re-executes one record. The returned errors are typed: ErrGap for
// an out-of-order sequence number, ErrReplayDiverged when the statement's
// outcome contradicts the logged one. Both are terminal — the applier's
// catalog can no longer be trusted to match the log, and the caller must
// fail-stop rather than continue.
func (a *Applier) Apply(ctx context.Context, r Record) error {
	if r.Seq != a.applied+1 {
		return fmt.Errorf("%w: record %d applied where %d expected", ErrGap, r.Seq, a.applied+1)
	}
	if r.M.Session > a.maxSess {
		a.maxSess = r.M.Session
		// Keep the allocator ahead of the log so sessions created on this
		// database while (or after) records apply stay distinguishable
		// from the logged ones.
		a.root.EnsureSessionFloor(a.maxSess)
	}
	h := a.handles[r.M.Session]
	if h == nil {
		// The handle inherits the root configuration as of this moment in
		// replay, but the original session inherited it at creation time —
		// possibly before root SET statements replay has already applied.
		// The record carries the session's world seed so its creation
		// context does not depend on replay timing; the session's own SETs,
		// logged in order, keep it current from then on. (The root handle
		// never takes this path: its seed is boot configuration, the "seed"
		// half of the (seed, statement log) pair replay reproduces.)
		h = a.root.ReplaySession(r.M.Session, r.M.Seed)
		a.handles[r.M.Session] = h
	}
	_, execErr := sql.ExecContext(ctx, h, r.M.Text, r.M.Args...)
	if (execErr != nil) != r.M.Failed {
		if execErr == nil {
			execErr = errors.New("replay succeeded")
		}
		return fmt.Errorf("%w: record %d %.80q logged failed=%v but: %w",
			ErrReplayDiverged, r.Seq, r.M.Text, r.M.Failed, execErr)
	}
	a.applied = r.Seq
	return nil
}
