package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pip/internal/core"
	"pip/internal/sql"
)

// openStore opens a store on a fresh directory and closes it at cleanup.
func openStore(t *testing.T, db *core.DB) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store, dir
}

// openTail opens a tail from seq and closes it at cleanup.
func openTail(t *testing.T, store *Store, from uint64) *Tail {
	t.Helper()
	tl, err := store.Tail(from)
	if err != nil {
		t.Fatalf("Tail(%d): %v", from, err)
	}
	t.Cleanup(func() { tl.Close() })
	return tl
}

// appendText commits one record straight through the store, with no
// statement applied — the tail reads bytes, not catalogs.
func appendText(t *testing.T, store *Store, text string) {
	t.Helper()
	if err := store.AppendMutation(core.Mutation{Session: core.RootSessionID, Seed: 7, Text: text}); err != nil {
		t.Error(err)
	}
}

// nextRecords calls Next once with a bounded wait and decodes the frames
// it returned.
func nextRecords(t *testing.T, tl *Tail) []Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b, err := tl.Next(ctx, nil)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("Next returned no frames and no error")
	}
	var recs []Record
	for len(b) > 0 {
		r, n, err := decodeFrame(b)
		if err != nil {
			t.Fatalf("Next returned a frame that does not decode: %v", err)
		}
		recs, b = append(recs, r), b[n:]
	}
	return recs
}

// drain reads tl until it has delivered record last, requiring the
// sequence numbers to run from, from+1, … with no gap or duplicate.
func drain(t *testing.T, tl *Tail, from, last uint64) {
	t.Helper()
	want := from
	for want <= last {
		for _, r := range nextRecords(t, tl) {
			if r.Seq != want {
				t.Fatalf("delivery out of order: got seq %d, want %d", r.Seq, want)
			}
			want++
		}
	}
	if want != last+1 {
		t.Fatalf("delivered through %d, want exactly %d", want-1, last)
	}
	if tl.Pos() != last+1 {
		t.Fatalf("Pos() = %d after delivering %d", tl.Pos(), last)
	}
}

func TestSubscribeDeliversHistoricalThenLive(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	seedStatements(t, db) // 5 records, one of them a logged failure

	tl := openTail(t, store, 1)
	drain(t, tl, 1, 5)
	// The tail has reached the end of the log; new commits arrive in
	// commit order with contiguous sequence numbers.
	mustExec(t, db, "INSERT INTO orders VALUES ('Eve', 3)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Mal', 4)")
	want := uint64(6)
	for want <= 7 {
		for _, r := range nextRecords(t, tl) {
			if r.Seq != want || r.M.Text == "" {
				t.Fatalf("live record arrived as seq %d (%q), want %d", r.Seq, r.M.Text, want)
			}
			want++
		}
	}
}

func TestSubscribeAcrossSegmentRotation(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	mustExec(t, db, "CREATE TABLE t (a)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := store.Snapshot(); err != nil { // rotates to a fresh segment
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	mustExec(t, db, "INSERT INTO t VALUES (3)")

	// From 1: the read spans both segments, still gap-free.
	tl := openTail(t, store, 1)
	drain(t, tl, 1, 4)
	mustExec(t, db, "INSERT INTO t VALUES (4)")
	drain(t, tl, 5, 5)
	// A rotation while the tail waits at the end of the active segment.
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (5)")
	drain(t, tl, 6, 6)
}

func TestTailFromMidSegment(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	seedStatements(t, db)
	// Records before from are checked and skipped, not delivered.
	drain(t, openTail(t, store, 4), 4, 5)
}

func TestSubscribeCompactedAfterPruning(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	mustExec(t, db, "CREATE TABLE t (a)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Two snapshots retained; the segment holding records 1..2 is pruned.
	if _, err := store.Tail(1); !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail from pruned history: got %v, want ErrCompacted", err)
	}

	// Bootstrapping from the newest snapshot always works: its coverage
	// point is on disk by construction of the prune invariant.
	snapSeq, _, ok := store.NewestSnapshot()
	if !ok || snapSeq != 3 {
		t.Fatalf("newest snapshot covers %d (ok=%v), want 3", snapSeq, ok)
	}
	tl := openTail(t, store, snapSeq+1)
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	drain(t, tl, snapSeq+1, snapSeq+1)
}

// TestTailOutlivedByPruning: a tail keeps its segment open, so pruning
// that segment loses nothing — the tail reads on through it and into the
// next. Only when the next segment is pruned too does Next fail, with
// ErrCompacted, and never by skipping records.
func TestTailOutlivedByPruning(t *testing.T) {
	db := newDB(7)
	store, dir := openStore(t, db)
	mustExec(t, db, "CREATE TABLE t (a)")
	ahead, behind := openTail(t, store, 1), openTail(t, store, 1)
	drain(t, ahead, 1, 1)
	drain(t, behind, 1, 1)

	// Snapshots at 2 and 3: the tails' segment (records 1..2) is pruned.
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t VALUES (2)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, segName(1))); len(m) != 0 {
		t.Fatal("precondition: the first segment was not pruned")
	}
	drain(t, ahead, 2, 3)

	// A snapshot at 4 prunes the segment holding record 3 as well.
	mustExec(t, db, "INSERT INTO t VALUES (3)")
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	drain(t, ahead, 4, 4)
	// behind still delivers record 2 from its open file, then finds the
	// segment it needs next gone.
	drain(t, behind, 2, 2)
	if _, err := behind.Next(context.Background(), nil); !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail behind pruning: got %v, want ErrCompacted", err)
	}
}

func TestSubscribeBeyondTailIsGap(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	mustExec(t, db, "CREATE TABLE t (a)")
	if _, err := store.Tail(3); !errors.Is(err, ErrGap) {
		t.Fatalf("tail past the end: got %v, want ErrGap", err)
	}
	// Exactly seq+1 (a fully caught-up consumer) is fine.
	tl := openTail(t, store, 2)
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	drain(t, tl, 2, 2)
}

func TestSubscribeConcurrentCommitsInOrder(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	mustExec(t, db, "CREATE TABLE t (a)")
	tl := openTail(t, store, 1)

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session()
			for i := 0; i < perWriter; i++ {
				if _, err := sql.Exec(s, fmt.Sprintf("INSERT INTO t VALUES (%d)", w*perWriter+i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	drain(t, tl, 1, 1+writers*perWriter)
	wg.Wait()
}

// TestTailSurvivesUnreadBacklog: a tail nobody reads costs the store
// nothing while 70 000 records are committed past it, and then delivers
// every one of them in order.
func TestTailSurvivesUnreadBacklog(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	tl := openTail(t, store, 1)
	const n = 70_000
	for i := 0; i < n; i++ {
		appendText(t, store, "SET samples = 500")
	}
	drain(t, tl, 1, n)
}

// TestTailMidHistoryConcurrentCommits: a tail that has read part of the
// history — more than one Next's worth — keeps reading while four
// goroutines commit, and yields every record exactly once, in order.
func TestTailMidHistoryConcurrentCommits(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	pad := strings.Repeat("x", 100)
	const history = 4000 // ≈ 450 KB, more than one Next reads
	for i := 0; i < history; i++ {
		appendText(t, store, fmt.Sprintf("SET samples = %d -- %s", i+1, pad))
	}
	tl := openTail(t, store, 1)
	first := nextRecords(t, tl)
	if len(first) == 0 || len(first) >= history {
		t.Fatalf("first Next returned %d of %d history records, want part of them", len(first), history)
	}

	const writers, perWriter = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				appendText(t, store, fmt.Sprintf("SET samples = %d", w*perWriter+i+1))
			}
		}(w)
	}
	drain(t, tl, uint64(len(first))+1, history+writers*perWriter)
	wg.Wait()
}

// TestTailNeverReturnsDamagedFrame: a record of a finished segment that
// fails its CRC, or a CRC-valid frame out of sequence, stops the tail
// there. The frames before it are delivered; the bad one and everything
// after are not, on this Next or any later one.
func TestTailNeverReturnsDamagedFrame(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(t *testing.T, seg string)
		good   uint64 // records delivered before the damage
		want   error
	}{
		{"flipped byte in record 5", func(t *testing.T, seg string) { corrupt(t, seg, -2) }, 4, ErrCorruptRecord},
		{"record 5 repeated", func(t *testing.T, seg string) {
			frame, err := AppendRecord(nil, Record{Seq: 5, M: core.Mutation{Session: core.RootSessionID, Text: "SET samples = 500"}})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
		}, 5, ErrGap},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := newDB(7)
			store, dir := openStore(t, db)
			seedStatements(t, db)
			if err := store.Snapshot(); err != nil { // finishes the segment
				t.Fatal(err)
			}
			mustExec(t, db, "INSERT INTO orders VALUES ('Eve', 3)")
			c.damage(t, filepath.Join(dir, segName(1)))

			tl := openTail(t, store, 1)
			drain(t, tl, 1, c.good)
			for i := 0; i < 2; i++ {
				b, err := tl.Next(context.Background(), nil)
				if !errors.Is(err, c.want) || len(b) != 0 {
					t.Fatalf("Next over the damage: %d bytes, err %v; want none and %v", len(b), err, c.want)
				}
			}
		})
	}
}

// TestTailReadsOnlyCommittedBytes: bytes in the active segment past the
// last commit — a frame written but not yet synced and acknowledged — are
// not read until the commit publishes them.
func TestTailReadsOnlyCommittedBytes(t *testing.T) {
	db := newDB(7)
	store, dir := openStore(t, db)
	appendText(t, store, "SET samples = 1")
	tl := openTail(t, store, 1)
	drain(t, tl, 1, 1)

	frame, err := AppendRecord(nil, Record{Seq: 2, M: core.Mutation{Session: core.RootSessionID, Text: "SET samples = 2"}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if b, err := tl.Next(ctx, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next past the committed end: %d bytes, err %v; want it to wait", len(b), err)
	}
}

// TestTailFrameLongerThanBatch: a record larger than one read batch is
// still returned whole.
func TestTailFrameLongerThanBatch(t *testing.T) {
	db := newDB(7)
	store, _ := openStore(t, db)
	appendText(t, store, "SET samples = 1")
	appendText(t, store, "SET samples = 2 -- "+strings.Repeat("y", tailBatch+100))
	appendText(t, store, "SET samples = 3")
	drain(t, openTail(t, store, 1), 1, 3)
}

func TestStoreCloseFailsSubscribers(t *testing.T) {
	dir := t.TempDir()
	db := newDB(7)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := store.Tail(1)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	done := make(chan error, 1)
	go func() {
		_, err := tl.Next(context.Background(), nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Next block
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Next after Close: got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still blocked after store Close")
	}
	if _, err := store.Tail(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Tail on a closed store: got %v, want ErrClosed", err)
	}
}
