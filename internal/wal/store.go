// Store: the live write-ahead log a running database appends to. Open
// recovers the data directory, resumes the final segment (or starts a
// fresh one), and attaches itself to the database's statement-commit hook,
// after which every catalog-mutating statement is appended — and, with
// Fsync on, synced — before the statement is acknowledged.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pip/internal/core"
	"pip/internal/obs"
)

// Store is an open write-ahead log bound to one database. It implements
// core.MutationLog; Open attaches it, Close detaches it. All methods are
// safe for concurrent use.
//
// mu serializes the writer — append, rotation, pruning — and guards the
// fields below it. Readers (tails, NewestSnapshot, Stats) hold it only to
// copy a few of those fields, never across file I/O, so no reader can
// stall a commit.
type Store struct {
	dir  string
	opts Options
	db   *core.DB

	mu          sync.Mutex
	f           *os.File      // active segment, positioned at its end
	segFirst    uint64        // active segment's first sequence number
	segEnd      int64         // active segment's committed length in bytes
	commitCh    chan struct{} // closed and replaced on each commit and on Close
	seq         uint64        // last appended sequence number
	lastSnapSeq uint64        // sequence the newest snapshot covers through
	sinceSnap   int           // records appended since that snapshot
	lastSnapErr string        // most recent automatic-snapshot failure
	poisoned    error         // first append/sync failure; fail-stop, see AppendMutation
	closed      bool
	buf         []byte // scratch frame buffer, reused across appends

	records   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	snapshots atomic.Uint64
	fsyncHist *obs.Histogram
	recovery  RecoveryInfo

	snapCh    chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Stats is a point-in-time snapshot of a store's counters, rendered by the
// server's /metrics endpoint.
type Stats struct {
	// Records and Bytes count appends by this process (recovery replays
	// are not appends and are excluded).
	Records, Bytes uint64
	// Fsyncs counts log-file syncs; FsyncSeconds is their latency
	// distribution.
	Fsyncs       uint64
	FsyncSeconds obs.HistogramSnapshot
	// Snapshots counts catalog snapshots taken by this process.
	Snapshots uint64
	// LastSeq is the sequence number of the newest durable record;
	// SnapshotSeq is the record the newest snapshot covers through, and
	// SinceSnapshot how many records have accumulated past it.
	LastSeq, SnapshotSeq uint64
	SinceSnapshot        int
	// LastSnapshotError is the most recent automatic-snapshot failure
	// ("" if none); automatic snapshots retry on the next trigger.
	LastSnapshotError string
	// Poisoned is the append/sync failure that fail-stopped the store (""
	// while healthy). Once set, every mutation is refused with ErrPoisoned
	// until the process restarts and recovers.
	Poisoned string
	// Recovery reports what Open's recovery pass found and did.
	Recovery RecoveryInfo
}

// Open recovers the data directory into db (creating the directory if
// needed), opens the log for appending, attaches the store to db's
// statement-commit hook, and — when opts.SnapshotEvery is set — starts the
// automatic snapshot loop. db must be the root handle of a database that
// is not yet serving statements; on success every subsequent
// catalog-mutating statement on any handle is logged before it is
// acknowledged. The returned RecoveryInfo tells the caller what was
// restored (check its TailErr to log dropped torn tails).
func Open(dir string, db *core.DB, opts Options) (*Store, *RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	info, lay, err := recoverState(dir, db, true)
	if err != nil {
		return nil, info, err
	}
	// recoverState guarantees lastSeq >= SnapshotSeq; the guard keeps a
	// violation from wrapping the subtraction into a huge negative count
	// that would defer automatic snapshots indefinitely.
	sinceSnap := 0
	if lay.lastSeq > info.SnapshotSeq {
		sinceSnap = int(lay.lastSeq - info.SnapshotSeq)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		db:          db,
		seq:         lay.lastSeq,
		lastSnapSeq: info.SnapshotSeq,
		sinceSnap:   sinceSnap,
		commitCh:    make(chan struct{}),
		fsyncHist:   obs.NewHistogram(obs.ExpBuckets(1e-5, 4, 10)), // 10µs .. ~2.6s
		recovery:    *info,
	}
	if lay.activeSeg != "" {
		f, ferr := os.OpenFile(lay.activeSeg, os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return nil, info, ferr
		}
		fi, ferr := f.Stat()
		if ferr != nil {
			f.Close()
			return nil, info, ferr
		}
		s.f, s.segFirst, s.segEnd = f, lay.activeFirst, fi.Size()
	} else if err := s.startSegmentLocked(s.seq + 1); err != nil {
		return nil, info, err
	}
	if opts.SnapshotEvery > 0 {
		s.snapCh = make(chan struct{}, 1)
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.snapshotLoop()
	}
	db.SetMutationLog(s)
	return s, info, nil
}

// AppendMutation implements core.MutationLog: frame the statement, append
// it to the active segment, and (with Fsync on) sync before returning.
// The commit hook calls it while holding the statement-commit lock, so
// records land in exactly the order statements applied.
func (s *Store) AppendMutation(m core.Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.poisoned != nil {
		return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
	}
	frame, err := AppendRecord(s.buf[:0], Record{Seq: s.seq + 1, M: m})
	if err != nil {
		// Nothing reached the disk, but the statement already applied in
		// memory with no record of it, so the running catalog is no longer
		// the one the log replays to. Fail-stop (see below).
		return s.poison(fmt.Errorf("encode record %d: %w", s.seq+1, err))
	}
	s.buf = frame[:0]
	if _, err := s.f.Write(frame); err != nil {
		// A short write leaves torn bytes mid-file: were appends to
		// continue at seq+1, every later frame would sit behind the tear
		// and recovery would truncate them all as a torn tail. Fail-stop:
		// the statement is never acknowledged (recovery rightly drops any
		// partial bytes), and no further mutation is accepted, so nothing
		// acknowledged can land beyond the damage.
		return s.poison(fmt.Errorf("append record %d: %w", s.seq+1, err))
	}
	if s.opts.Fsync {
		//pipvet:allow detsource fsync-latency telemetry, never feeds sampled state
		t := time.Now()
		if err := s.f.Sync(); err != nil {
			// The frame may or may not have reached the disk. Retrying at
			// the same sequence number would duplicate it if it did — a gap
			// recovery refuses to boot on — so fail-stop here too.
			return s.poison(fmt.Errorf("sync record %d: %w", s.seq+1, err))
		}
		//pipvet:allow detsource fsync-latency telemetry, never feeds sampled state
		s.fsyncHist.Observe(time.Since(t).Seconds())
		s.fsyncs.Add(1)
	}
	s.seq++
	s.sinceSnap++
	s.segEnd += int64(len(frame))
	s.records.Add(1)
	s.bytes.Add(uint64(len(frame)))
	// The record is committed: wake every tail waiting for it.
	close(s.commitCh)
	s.commitCh = make(chan struct{})
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		select {
		case s.snapCh <- struct{}{}:
		default: // one is already pending
		}
	}
	return nil
}

// poison latches the first append failure, fail-stopping the store: every
// later AppendMutation or Snapshot is refused with ErrPoisoned until the
// process restarts and recovers. Returns the wrapped cause for the caller
// to report. Caller holds s.mu.
func (s *Store) poison(cause error) error {
	s.poisoned = cause
	return fmt.Errorf("wal: %w", cause)
}

// Snapshot captures the catalog as of the last appended record into a new
// snapshot file, rotates the log to a fresh segment, and prunes files made
// redundant by snapshot retention (the two newest snapshots are kept). It
// runs under the statement-commit lock, so the captured state sits exactly
// on a record boundary; with no records since the last snapshot it is a
// no-op.
func (s *Store) Snapshot() error {
	return s.db.RunExclusive(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		if s.poisoned != nil {
			// After a failed append the catalog holds a statement the log
			// does not; a snapshot would persist that divergence.
			return fmt.Errorf("%w: %w", ErrPoisoned, s.poisoned)
		}
		if s.seq == s.lastSnapSeq {
			return nil
		}
		if _, err := writeSnapshotFile(s.dir, s.seq, s.db); err != nil {
			return err
		}
		s.snapshots.Add(1)
		if err := s.f.Sync(); err != nil {
			return err
		}
		old := s.f
		if err := s.startSegmentLocked(s.seq + 1); err != nil {
			s.f = old // keep appending to the previous segment
			return err
		}
		old.Close()
		s.lastSnapSeq = s.seq
		s.sinceSnap = 0
		s.prune()
		return nil
	})
}

// Close takes the store out of the database's commit path, stops the
// snapshot loop, and syncs and closes the active segment. It does not take
// a final snapshot — callers wanting one (e.g. graceful shutdown) call
// Snapshot first. Safe to call more than once.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.db.SetMutationLog(nil)
		if s.done != nil {
			close(s.done)
		}
		s.wg.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.closed = true
		close(s.commitCh)
		if s.f != nil {
			err = s.f.Sync()
			if cerr := s.f.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// Stats returns a point-in-time copy of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	seq, snapSeq, since, snapErr := s.seq, s.lastSnapSeq, s.sinceSnap, s.lastSnapErr
	poisoned := ""
	if s.poisoned != nil {
		poisoned = s.poisoned.Error()
	}
	s.mu.Unlock()
	return Stats{
		Records:           s.records.Load(),
		Bytes:             s.bytes.Load(),
		Fsyncs:            s.fsyncs.Load(),
		FsyncSeconds:      s.fsyncHist.Snapshot(),
		Snapshots:         s.snapshots.Load(),
		LastSeq:           seq,
		SnapshotSeq:       snapSeq,
		SinceSnapshot:     since,
		LastSnapshotError: snapErr,
		Poisoned:          poisoned,
		Recovery:          s.recovery,
	}
}

// NewestSnapshot reports the newest on-disk snapshot: the sequence number
// it covers through and its full path (ok is false when none exists yet).
// The path stays valid until two newer snapshots have been taken — prune
// always retains the two newest — so a reader that opens it promptly never
// races the pruner. A snapshot appears under its name only once complete
// (see writeSnapshotFile), so the listing needs no lock.
func (s *Store) NewestSnapshot() (seq uint64, path string, ok bool) {
	_, snaps, err := listDir(s.dir)
	if err != nil || len(snaps) == 0 {
		return 0, "", false
	}
	seq = snaps[len(snaps)-1]
	return seq, filepath.Join(s.dir, snapName(seq)), true
}

// startSegmentLocked creates and durably initializes the segment whose
// first record will be first, and makes it the active segment. Callers
// hold s.mu (or are inside Open, before the store is shared).
func (s *Store) startSegmentLocked(first uint64) error {
	path := filepath.Join(s.dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.f, s.segFirst, s.segEnd = f, first, int64(len(segMagic))
	return nil
}

// prune deletes snapshots beyond the two newest and segments wholly
// covered by the older retained snapshot. Best-effort: removal failures
// are ignored (the files are garbage, not state). Caller holds s.mu.
func (s *Store) prune() {
	segs, snaps, err := listDir(s.dir)
	if err != nil {
		return
	}
	var doomed []string
	if len(snaps) > 2 {
		for _, sq := range snaps[:len(snaps)-2] {
			doomed = append(doomed, snapName(sq))
		}
		snaps = snaps[len(snaps)-2:]
	}
	// Segments are pruned only against the OLDER retained snapshot: while a
	// single snapshot exists, the full log stays as its fallback, so a
	// corrupt sole snapshot never strands the catalog.
	if len(snaps) >= 2 {
		older := snaps[0]
		for i := 0; i+1 < len(segs); i++ {
			// All of segs[i]'s records precede segs[i+1]; if the next
			// segment starts within the older snapshot's coverage, every
			// record here is recoverable from that snapshot alone.
			if segs[i+1] <= older+1 {
				doomed = append(doomed, segName(segs[i]))
			}
		}
	}
	removeAllNamed(s.dir, doomed)
}

// snapshotLoop services automatic snapshot triggers until Close. Failures
// are recorded for Stats and retried on the next trigger — an unsnapshotted
// log is slower to recover, not unsafe.
func (s *Store) snapshotLoop() {
	defer s.wg.Done()
	service := func() {
		if err := s.Snapshot(); err != nil && !errors.Is(err, ErrClosed) {
			s.mu.Lock()
			s.lastSnapErr = err.Error()
			s.mu.Unlock()
		}
	}
	for {
		select {
		case <-s.done:
			// Close is underway but the store is not yet closed (closed is
			// set only after this loop exits). With done and a pending
			// trigger both ready, select picks arbitrarily — so drain the
			// trigger here, or a burst of appends right before shutdown
			// loses its snapshot.
			select {
			case <-s.snapCh:
				service()
			default:
			}
			return
		case <-s.snapCh:
			service()
		}
	}
}
