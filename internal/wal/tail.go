// Tails: the reader the replication stream rides on. A tail names the
// first sequence number it wants and then reads every committed record
// from there on, in order and with no gaps, out of the segment files
// themselves — as the frames lie on disk, checked the way recovery checks
// them. There is no second copy of the log in memory: the store only
// publishes how far the active segment is committed and wakes readers on
// each commit, so a tail left unread costs one open file and nothing else.
package wal

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// tailBatch caps how many bytes one Next reads; a single larger frame is
// still returned whole.
const tailBatch = 256 << 10

// Tail reads committed log frames from the segment files, starting at a
// given sequence number. A single consumer goroutine is assumed; the
// store side is safe for concurrent use.
type Tail struct {
	s    *Store
	f    *os.File // the segment being read
	seg  uint64   // f's first sequence number
	off  int64    // offset in f of the next unread frame
	seq  uint64   // sequence number of the frame at off
	from uint64   // first sequence number to deliver
}

// Tail returns a reader of every committed record with sequence number
// >= from. from = LastSeq+1 (a fully caught-up consumer) is valid; beyond
// that Tail fails with ErrGap. If pruning has compacted from into a
// snapshot, Tail — or a later Next, if the tail falls behind pruning —
// fails with ErrCompacted, and the caller should bootstrap from the
// newest snapshot instead.
func (s *Store) Tail(from uint64) (*Tail, error) {
	from = max(from, 1)
	s.mu.Lock()
	closed, last, first := s.closed, s.seq, s.segFirst
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if from > last+1 {
		return nil, fmt.Errorf("%w: tail from %d but the log ends at %d", ErrGap, from, last)
	}
	if from < first {
		// An older, finished segment holds from: the last one starting at
		// or before it. Segments created after the check above start past
		// from, so the listing cannot pick one still being initialized.
		segs, _, err := listDir(s.dir)
		if err != nil {
			return nil, err
		}
		i := sort.Search(len(segs), func(i int) bool { return segs[i] > from }) - 1
		if i < 0 {
			return nil, fmt.Errorf("%w: record %d requested, the oldest segment on disk starts later", ErrCompacted, from)
		}
		first = segs[i]
	}
	t := &Tail{s: s, from: from}
	if err := t.open(first); err != nil {
		return nil, err
	}
	return t, nil
}

// open switches the tail to the segment whose first record is first.
func (t *Tail) open(first uint64) error {
	f, err := os.Open(filepath.Join(t.s.dir, segName(first)))
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: segment %s was pruned", ErrCompacted, segName(first))
	}
	if err != nil {
		return err
	}
	var magic [len(segMagic)]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != segMagic {
		f.Close()
		return fmt.Errorf("%w: segment %s: bad magic", ErrCorruptRecord, segName(first))
	}
	if t.f != nil {
		t.f.Close()
	}
	t.f, t.seg, t.off, t.seq = f, first, int64(len(segMagic)), first
	return nil
}

// Pos returns the sequence number of the next record Next delivers.
func (t *Tail) Pos() uint64 { return max(t.seq, t.from) }

// Next appends to dst the committed frames from the tail's position on,
// byte for byte as the segment files hold them, blocking until at least
// one is available. Each frame passes the length, CRC, payload and
// sequence checks recovery applies before it is appended, so a damaged
// frame is never returned: Next delivers the good frames before it and
// then fails with ErrCorruptRecord or ErrGap. Next also fails with
// ErrCompacted when the next segment was pruned before the tail reached
// it, ErrClosed once the store closes, and ctx.Err() on cancellation.
func (t *Tail) Next(ctx context.Context, dst []byte) ([]byte, error) {
	start := len(dst)
	for {
		s := t.s
		s.mu.Lock()
		closed, active, end, wake := s.closed, s.segFirst, s.segEnd, s.commitCh
		s.mu.Unlock()
		if closed {
			return dst, ErrClosed
		}
		finished := t.seg < active
		if finished {
			// No append touches a finished segment again: all of it is
			// committed.
			fi, err := t.f.Stat()
			if err != nil {
				return dst, err
			}
			end = fi.Size()
		}
		if t.off < end {
			var err error
			if dst, err = t.read(dst, end); len(dst) > start || err != nil {
				return dst, err
			}
			continue // every frame read preceded from
		}
		if finished {
			if err := t.open(t.seq); err != nil {
				return dst, err
			}
			continue
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return dst, ctx.Err()
		}
	}
}

// read appends to dst the whole frames among the committed bytes
// [t.off, end) of the open segment, reading at most tailBatch bytes unless
// the first frame alone is longer. Frames before t.from are checked and
// dropped. A bad frame ends the read; it is reported only when no frame
// came before it, so the good frames are delivered first.
func (t *Tail) read(dst []byte, end int64) ([]byte, error) {
	base := len(dst)
	n := int(min(end-t.off, tailBatch))
	for {
		dst = slices.Grow(dst[:base], n)[:base+n]
		if _, err := t.f.ReadAt(dst[base:], t.off); err != nil {
			return dst[:base], err
		}
		out, used := base, 0
		for used < n {
			r, m, err := decodeFrame(dst[base+used:])
			if err == nil && r.Seq != t.seq {
				err = fmt.Errorf("%w: record %d where %d expected", ErrGap, r.Seq, t.seq)
			}
			if errors.Is(err, ErrTruncatedTail) && used > 0 {
				break // the batch cut a frame; the next call reads it
			}
			if errors.Is(err, ErrTruncatedTail) && n >= FrameHeaderLen {
				if whole, _, _ := frameHeader(dst[base:]); t.off+int64(whole) <= end {
					n = whole // one frame longer than a batch: read it whole
					break
				}
			}
			if err != nil {
				if out > base {
					return dst[:out], nil
				}
				return dst[:base], fmt.Errorf("segment %s at offset %d: %w", segName(t.seg), t.off, err)
			}
			if r.Seq >= t.from {
				if out != base+used {
					copy(dst[out:], dst[base+used:base+used+m])
				}
				out += m
			}
			used += m
			t.off += int64(m)
			t.seq++
		}
		if used > 0 {
			return dst[:out], nil
		}
	}
}

// Close releases the tail's open segment file.
func (t *Tail) Close() error { return t.f.Close() }
