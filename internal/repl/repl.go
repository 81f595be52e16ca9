// Package repl replicates a pip database: a primary ships its write-ahead
// statement log (and, for catch-up, whole catalog snapshots) over the wire
// to read-only replicas that replay it through the ordinary SQL path.
//
// The subsystem is thin by design because the engine's determinism does
// the heavy lifting. A catalog is a pure function of (seed, ordered
// statement log) — DDL/DML never consult the sampler and random-variable
// identifiers are allocated from a counter in statement order — so a
// replica that applies the same records a primary logged is byte-identical
// to it, not merely convergent: at equal log sequence numbers, primary and
// replica answer every query with the same bits. There is no page
// shipping, no conflict resolution, and no quorum; the log IS the state.
//
// # Topology and protocol
//
// One Primary wraps the primary's wal.Store and serves two HTTP endpoints
// (mounted on pipd's -replicate-addr listener):
//
//	GET  /v1/repl/stream?from=N&replica=ID   the log from record N onward
//	POST /v1/repl/ack?replica=ID&seq=N       replica progress report
//
// A stream's response headers say where it starts: Pip-Seed is the
// primary's boot seed, Pip-Last-Seq its newest record, and
// Pip-Snapshot-Seq / Pip-Snapshot-Bytes the coverage and size of the
// snapshot the body opens with (both 0 when none is needed). When the
// requested resume point is still on disk the body is records only; when
// pruning has compacted it into a snapshot, the body starts with the
// newest snapshot file verbatim and the records resume past its coverage.
// Records are framed exactly as in a segment file — u32 length, u32
// CRC-32C, payload — and read back by the WAL's own frame decoder, so the
// bytes on the wire are the bytes on disk and the replica verifies the
// checksum the primary's log stores. Order is fixed by position, so there
// are no frame kinds to police.
//
// A Follower owns the replica side: connect → header checks → (snapshot
// load) → replay → live apply, acking applied sequence numbers back for the
// primary's lag accounting, and reconnecting with resume-from-seq after
// network failures. Failures of integrity — corrupt or out-of-order
// frames, a seed mismatch, a replay whose outcome contradicts the logged
// one — are not retried: the follower latches a typed error and stops,
// because a replica that cannot prove it matches the log must fail-stop
// rather than serve silently wrong reads. The replica database is marked
// read-only (core.ErrReadOnly names the primary); only the follower's
// applier handles may mutate it.
package repl

import (
	"errors"
	"strings"
)

// Endpoint paths served by the primary and dialed by followers.
const (
	StreamPath = "/v1/repl/stream"
	AckPath    = "/v1/repl/ack"
)

// Typed failures of the replication stream; match with errors.Is. All four
// are terminal for a follower: it latches the error, stops applying, and
// Run returns it (transient network failures, by contrast, reconnect).
var (
	// ErrStreamCorrupt reports a stream whose headers are malformed or
	// contradict its body, or a frame that failed its length, checksum or
	// decode checks — the bytes on the wire are not the bytes the
	// primary's log holds.
	ErrStreamCorrupt = errors.New("repl: corrupt replication stream")
	// ErrStreamGap reports records arriving out of sequence: a gap or
	// reordering the replica cannot apply without breaking the
	// same-log ⇒ same-catalog contract.
	ErrStreamGap = errors.New("repl: replication stream sequence gap")
	// ErrSeedMismatch reports a primary and replica booted with different
	// world seeds. Replay would produce a catalog that answers queries
	// differently, so the follower refuses to start.
	ErrSeedMismatch = errors.New("repl: primary and replica seeds differ")
	// ErrPrimaryBehind reports a primary whose log ends before this
	// replica's applied position — the primary lost acknowledged history
	// (restored from an old backup, or wiped), and following it would
	// silently rewind the replica.
	ErrPrimaryBehind = errors.New("repl: primary log is behind this replica")
)

// Response headers of a stream; each value is a decimal integer.
const (
	hdrSeed          = "Pip-Seed"
	hdrLastSeq       = "Pip-Last-Seq"
	hdrSnapshotSeq   = "Pip-Snapshot-Seq"
	hdrSnapshotBytes = "Pip-Snapshot-Bytes"
)

// normalizePrimary turns the user-facing primary address forms —
// "host:port", "pip://host:port", "http://host:port" — into an http base
// URL and a display form (the one ErrReadOnly messages show).
func normalizePrimary(addr string) (base, display string) {
	display = strings.TrimSuffix(strings.TrimPrefix(addr, "pip://"), "/")
	if after, ok := strings.CutPrefix(addr, "http://"); ok {
		display = strings.TrimSuffix(after, "/")
	}
	return "http://" + display, "pip://" + display
}
