// Recovery: load the newest readable snapshot, scan the segment chain for
// the records it does not cover, and replay them through the SQL layer.
// Replay works because the engine is deterministic — re-executing the
// logged statement sequence reproduces the catalog exactly, including the
// random-variable allocator — and recovery verifies that determinism as it
// goes: a statement whose outcome contradicts the log aborts recovery with
// ErrReplayDiverged instead of serving a silently wrong catalog.
package wal

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pip/internal/core"
)

// RecoveryInfo describes what recovery found and did: which snapshot
// seeded the catalog, how much log was replayed, and whether a torn tail
// was dropped.
type RecoveryInfo struct {
	// SnapshotSeq is the sequence number the loaded snapshot covers
	// through (0 when recovery started from an empty catalog).
	SnapshotSeq uint64
	// SnapshotPath is the loaded snapshot file ("" if none).
	SnapshotPath string
	// SkippedSnapshots lists newer snapshots that failed validation and
	// were passed over for an older one, with the reason each was skipped.
	SkippedSnapshots []string
	// Replayed counts log records re-executed on top of the snapshot.
	Replayed int
	// LastSeq is the sequence number of the last durable record; appends
	// resume at LastSeq+1.
	LastSeq uint64
	// MaxSession is the largest session id seen in replayed records (0 if
	// none); the session allocator is advanced past it.
	MaxSession uint64
	// TailTruncated is the number of bytes dropped from the end of the
	// final segment because they did not form a complete valid record.
	TailTruncated int64
	// TailErr is the typed error that ended the log scan — ErrTruncatedTail
	// or ErrCorruptRecord at the tail of the final segment, where a crash
	// mid-append legitimately leaves partial bytes. It is reported here
	// rather than failing recovery; nil when the log ended cleanly. Damage
	// is only tolerated as a tail when no intact record follows it —
	// otherwise recovery fails with ErrCorruptRecord instead of silently
	// dropping the acknowledged records beyond the corruption.
	TailErr error
	// Duration is the wall time recovery took, snapshot load included.
	Duration time.Duration
}

// layout is what recovery learned about the on-disk files, for the store
// to resume appending.
type layout struct {
	lastSeq     uint64 // last durable record; appends resume after it
	activeSeg   string // final segment's path, "" if a fresh one is needed
	activeFirst uint64 // final segment's first sequence number
}

// Restore rebuilds db from the data directory without opening it for
// writing: snapshots and segments are read, never modified (a torn tail is
// reported in RecoveryInfo but not truncated). It is the read-only half of
// Open — what a replica, an offline inspector, or a bit-identity test uses
// to reconstruct the exact catalog a crashed server had acknowledged.
func Restore(dir string, db *core.DB) (*RecoveryInfo, error) {
	info, _, err := recoverState(dir, db, false)
	return info, err
}

// recoverState performs recovery into db: newest readable snapshot, then
// replay of every record past it, in sequence order. With repair set it
// also truncates a torn final-segment tail so the store can append after
// it. Hard failures (mid-log corruption, gaps, replay divergence, every
// snapshot unreadable with no full log to fall back on) return a typed
// error and leave the catalog in an unspecified partial state — callers
// must not serve from db after an error.
func recoverState(dir string, db *core.DB, repair bool) (*RecoveryInfo, layout, error) {
	//pipvet:allow detsource recovery-duration telemetry, never feeds sampled state
	start := time.Now()
	info := &RecoveryInfo{}
	var lay layout

	segs, snaps, err := listDir(dir)
	if err != nil {
		return info, lay, err
	}

	// Newest readable snapshot wins; unreadable ones are recorded and
	// skipped. With none readable the log itself must reach back to
	// record 1, otherwise history is unrecoverable.
	loaded := false
	for i := len(snaps) - 1; i >= 0 && !loaded; i-- {
		path := filepath.Join(dir, snapName(snaps[i]))
		if rerr := readSnapshotFile(path, snaps[i], db); rerr != nil {
			info.SkippedSnapshots = append(info.SkippedSnapshots, rerr.Error())
			continue
		}
		info.SnapshotSeq, info.SnapshotPath = snaps[i], path
		loaded = true
	}
	if !loaded && len(snaps) > 0 && (len(segs) == 0 || segs[0] != 1) {
		return info, lay, fmt.Errorf("%w: no readable snapshot and the log does not start at record 1 (%s)",
			ErrSnapshotCorrupt, strings.Join(info.SkippedSnapshots, "; "))
	}
	snapSeq := info.SnapshotSeq

	// Pick the segments that can hold records past the snapshot: the last
	// segment starting at or before snapSeq+1, plus everything after it.
	startIdx := -1
	for i, first := range segs {
		if first > snapSeq+1 {
			break
		}
		startIdx = i
	}
	if startIdx == -1 && len(segs) > 0 {
		return info, lay, fmt.Errorf("%w: snapshot covers through record %d but the oldest segment starts at %d",
			ErrGap, snapSeq, segs[0])
	}

	prev := snapSeq // last sequence number accounted for
	if startIdx >= 0 {
		prev = segs[startIdx] - 1
	}
	var replay []Record
	for i := startIdx; i >= 0 && i < len(segs); i++ {
		first := segs[i]
		final := i == len(segs)-1
		if first != prev+1 {
			return info, lay, fmt.Errorf("%w: segment %s starts at record %d, expected %d",
				ErrGap, segName(first), first, prev+1)
		}
		path := filepath.Join(dir, segName(first))
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return info, lay, rerr
		}
		if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
			if final && strings.HasPrefix(segMagic, string(data)) {
				// The crash hit during segment creation: the file holds a
				// prefix of the magic and nothing else. No records lost.
				info.TailErr = fmt.Errorf("%w: segment %s cut off during creation", ErrTruncatedTail, segName(first))
				info.TailTruncated = int64(len(data))
				if repair {
					if werr := durably(dir, path, os.WriteFile(path, []byte(segMagic), 0o644)); werr != nil {
						return info, lay, werr
					}
				}
				lay.activeSeg, lay.activeFirst = path, first
				break
			}
			return info, lay, fmt.Errorf("%w: segment %s: bad magic", ErrCorruptRecord, segName(first))
		}
		recs, goodLen, tailErr := scanSegment(data[len(segMagic):], first)
		if tailErr != nil && !final {
			// Corruption with more segments after it: records beyond this
			// point were acknowledged and still exist downstream, so
			// dropping them silently is not an option.
			return info, lay, fmt.Errorf("segment %s: %w", segName(first), tailErr)
		}
		if tailErr != nil {
			// A genuine torn tail is a crash artifact: partial bytes from
			// one interrupted append, extending to end of file. An intact
			// record past the bad frame means the log kept going — the
			// damage is mid-segment corruption (a bit flip, not a crash)
			// and the records beyond it were acknowledged, so truncating
			// them away silently is not an option either.
			if off := tailHoldsRecord(data[len(segMagic)+goodLen:], first+uint64(len(recs))); off >= 0 {
				return info, lay, fmt.Errorf("%w: segment %s: intact record %d bytes past the damage at offset %d — mid-segment corruption, not a torn tail (%w)",
					ErrCorruptRecord, segName(first), off, goodLen, tailErr)
			}
			info.TailErr = fmt.Errorf("segment %s: %w", segName(first), tailErr)
			info.TailTruncated = int64(len(data) - len(segMagic) - goodLen)
			if repair {
				if werr := durably(dir, path, os.Truncate(path, int64(len(segMagic)+goodLen))); werr != nil {
					return info, lay, werr
				}
			}
		}
		for _, r := range recs {
			if r.Seq > snapSeq {
				replay = append(replay, r)
			}
			prev = r.Seq
		}
		if final {
			lay.activeSeg, lay.activeFirst = path, first
		}
	}
	if prev < snapSeq {
		// The log ends before the loaded snapshot's coverage — e.g. the
		// final record was torn away while the snapshot that already
		// includes it survived. The snapshot is authoritative (no record
		// past its coverage exists to replay), so resume after it in a
		// fresh segment: appending at sequence numbers the snapshot already
		// covers would leave records the next recovery silently skips.
		prev = snapSeq
		lay.activeSeg, lay.activeFirst = "", 0
	}
	lay.lastSeq = prev

	// Replay through the shared applier (apply.go) — the same engine the
	// replication follower uses, so recovery and replication reproduce the
	// catalog by literally the same code path.
	ap := NewApplier(db, snapSeq)
	for _, r := range replay {
		if aerr := ap.Apply(context.Background(), r); aerr != nil {
			return info, lay, aerr
		}
		info.Replayed++
	}
	info.MaxSession = ap.MaxSession()
	info.LastSeq = lay.lastSeq
	//pipvet:allow detsource recovery-duration telemetry, never feeds sampled state
	info.Duration = time.Since(start)
	return info, lay, nil
}

// tailHoldsRecord scans the dropped tail bytes of a final segment for a
// complete, CRC-valid record whose sequence number is at or past next —
// evidence the bytes are not one interrupted append but mid-segment damage
// with acknowledged records beyond it. It returns the offset of the first
// such record within tail, or -1. The damage may sit in a length field, so
// frame boundaries are lost and every byte offset is tried; the CRC plus a
// full payload decode plus the sequence check make a false positive on
// genuine torn-append garbage practically impossible. Records with
// sequence numbers below next are ignored: a duplicate of an
// already-recovered frame loses nothing when dropped.
func tailHoldsRecord(tail []byte, next uint64) int {
	for off := 0; off+FrameHeaderLen < len(tail); off++ {
		if n, _, ok := frameHeader(tail[off:]); !ok || off+n > len(tail) {
			continue
		}
		if r, _, err := decodeFrame(tail[off:]); err == nil && r.Seq >= next {
			return off
		}
	}
	return -1
}

// durably finishes a repair of the segment file at path: it returns the
// repair's own error if it failed, and otherwise fsyncs the file and then
// dir so the repair survives a crash.
func durably(dir, path string, repairErr error) error {
	if repairErr != nil {
		return repairErr
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}
