// Package wal makes a pip database durable: an append-only write-ahead
// statement log plus periodic catalog snapshots, with recovery that loads
// the latest valid snapshot and replays the log suffix.
//
// The log records statements, not pages. The engine is deterministic —
// DDL/DML never consult the sampler, and random-variable identifiers are
// allocated from a counter in statement order — so the catalog is a pure
// function of the serialized statement sequence, and replaying that
// sequence on a fresh database reconstructs it byte-for-byte, allocator
// state included. Same (seed, statement log) therefore means bit-identical
// query answers after recovery, which is exactly the property the paper's
// determinism guarantees rest on and what the crash tests assert.
//
// On disk, a data directory holds:
//
//	wal-<firstseq>.log   append-only segments: 8-byte magic, then
//	                     length-prefixed CRC-checked records
//	snap-<seq>.pips      catalog snapshots covering records 1..seq,
//	                     written to a temp file, fsynced, renamed
//
// A snapshot rotates the log to a fresh segment; the two newest snapshots
// are retained (the older one is the fallback if the newest turns out
// unreadable) and segments wholly covered by the older retained snapshot
// are pruned. Recovery tolerates a torn tail in the final segment — the
// normal artifact of a crash mid-append — by truncating to the last valid
// record and reporting a typed error in RecoveryInfo; corruption anywhere
// else fails recovery loudly rather than silently dropping acknowledged
// statements. A tail only counts as torn when nothing decodable follows
// the damage: an intact record past the bad frame means acknowledged
// statements sit beyond mid-segment corruption, and recovery refuses to
// drop them.
//
// The store itself fail-stops: the first append or sync failure poisons
// it, and every later mutation is refused with ErrPoisoned until the
// process restarts and recovers. Appending past a failure could tear the
// log mid-file or duplicate a sequence number — and, because the failed
// statement already applied in memory, later records would replay on a
// base the log cannot reconstruct.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Typed failures recovery and the codecs report; match with errors.Is.
var (
	// ErrCorruptRecord reports a log record that fails its length, CRC, or
	// payload checks somewhere other than the tail of the final segment.
	ErrCorruptRecord = errors.New("wal: corrupt log record")
	// ErrTruncatedTail reports a final segment ending mid-record — the
	// expected artifact of a crash during an append. Recovery tolerates it:
	// the tail is dropped (and truncated away when opening for writing) and
	// the error is reported in RecoveryInfo.TailErr rather than returned.
	ErrTruncatedTail = errors.New("wal: truncated log tail")
	// ErrSnapshotCorrupt reports an unreadable snapshot file. Recovery falls
	// back to the next-older snapshot; it is fatal only when no snapshot
	// loads and the log does not reach back to record 1.
	ErrSnapshotCorrupt = errors.New("wal: corrupt snapshot")
	// ErrGap reports missing records: segment sequence numbers that do not
	// chain, or a log that starts after the loaded snapshot's coverage.
	ErrGap = errors.New("wal: log gap")
	// ErrReplayDiverged reports a replayed statement whose outcome
	// (success/failure) contradicts what the log recorded — the database no
	// longer deterministically reproduces its own history, so recovery
	// refuses to continue with a silently wrong catalog.
	ErrReplayDiverged = errors.New("wal: replay diverged from logged outcome")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("wal: store closed")
	// ErrCompacted reports a tail whose next record is no longer on disk:
	// pruning compacted that history into a snapshot. A reader wanting it
	// (a bootstrapping replica) must load the newest snapshot first and
	// tail from past its coverage.
	ErrCompacted = errors.New("wal: requested records compacted into a snapshot")
	// ErrPoisoned reports a mutation refused because an earlier append or
	// sync failed. The store fail-stops on the first such failure: the disk
	// may hold torn bytes or an unacknowledged frame at the next sequence
	// number, and the failed statement applied in memory without a log
	// record, so any further append would produce a log that replays to a
	// different catalog than the one running. Restart and recover to
	// resume.
	ErrPoisoned = errors.New("wal: store poisoned by earlier append failure")
)

// Options configures a Store.
type Options struct {
	// Fsync syncs the log file after every appended record, making the
	// commit acknowledgement mean "on disk" rather than "in the page cache".
	// Off, a crash of the whole machine can lose the last few acknowledged
	// statements; a crash of just the process cannot.
	Fsync bool
	// SnapshotEvery takes a catalog snapshot automatically after this many
	// appended records (0 disables automatic snapshots; Snapshot can always
	// be called explicitly, e.g. on graceful shutdown).
	SnapshotEvery int
}

// File naming: segments are named by the sequence number of their first
// record, snapshots by the last record they cover, both zero-padded so
// lexical order is numeric order.
const (
	segMagic    = "PIPWAL01"
	snapMagic   = "PIPSNP01"
	segPrefix   = "wal-"
	segSuffix   = ".log"
	snapPrefix  = "snap-"
	snapSuffix  = ".pips"
	seqNumWidth = 20
)

// segName returns the file name of the segment whose first record is seq.
func segName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", segPrefix, seqNumWidth, seq, segSuffix)
}

// snapName returns the file name of the snapshot covering records 1..seq.
func snapName(seq uint64) string {
	return fmt.Sprintf("%s%0*d%s", snapPrefix, seqNumWidth, seq, snapSuffix)
}

// parseSeqName extracts the sequence number from a segment or snapshot
// file name with the given prefix/suffix.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != seqNumWidth {
		return 0, false
	}
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listDir returns the segment first-sequence numbers and snapshot coverage
// sequence numbers present in dir, each sorted ascending.
func listDir(dir string) (segs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSeqName(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
		} else if n, ok := parseSeqName(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// removeAllNamed deletes the named files from dir, ignoring not-exist.
func removeAllNamed(dir string, names []string) {
	for _, n := range names {
		_ = os.Remove(filepath.Join(dir, n))
	}
}
