package wal

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/expr"
	"pip/internal/sampler"
	"pip/internal/sql"
)

func newDB(seed uint64) *core.DB {
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = seed
	return core.NewDB(cfg)
}

func mustExec(t *testing.T, db *core.DB, q string) {
	t.Helper()
	if _, err := sql.Exec(db, q); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
}

// catalogBytes returns the deterministic catalog encoding used for
// bit-identity assertions.
func catalogBytes(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.EncodeCatalog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectedRevenue runs the paper's running-example aggregate and returns
// the sampled expectation — a value whose exact bits depend on the seed,
// the variable identifiers, and the sampler, so equal bits mean the
// recovered database really is the same database.
func expectedRevenue(t *testing.T, db *core.DB) float64 {
	t.Helper()
	out, err := sql.Exec(db, "SELECT expected_sum(price) AS r FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := out.Tuples[0].Values[0].AsFloat()
	if !ok {
		t.Fatalf("aggregate did not return a float: %v", out.Tuples[0].Values[0])
	}
	return f
}

// seedStatements drives a small but representative workload: DDL, symbolic
// and scalar DML, a SET, and a failing statement (logged too — failures
// are deterministic and must replay as failures).
func seedStatements(t *testing.T, db *core.DB) {
	t.Helper()
	mustExec(t, db, "CREATE TABLE orders (cust, price)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")
	mustExec(t, db, "INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)")
	mustExec(t, db, "SET max_samples = 2048")
	if _, err := sql.Exec(db, "INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
}

func TestStoreLogsAndRestores(t *testing.T) {
	dir := t.TempDir()
	db := newDB(7)
	store, info, err := Open(dir, db, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 || info.Replayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", info)
	}
	seedStatements(t, db)
	want := catalogBytes(t, db)
	wantRevenue := expectedRevenue(t, db)
	st := store.Stats()
	if st.Records != 5 { // 4 successes + 1 logged failure
		t.Fatalf("expected 5 records, got %d", st.Records)
	}
	if st.Fsyncs == 0 || st.Bytes == 0 {
		t.Fatalf("fsync/byte counters dead: %+v", st)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// A replica restoring from the directory is bit-identical: same catalog
	// encoding, same sampled aggregate bits, and the root SET survived.
	replica := newDB(7)
	rinfo, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Replayed != 5 || rinfo.TailErr != nil {
		t.Fatalf("unexpected restore info: %+v", rinfo)
	}
	if got := catalogBytes(t, replica); !bytes.Equal(got, want) {
		t.Fatalf("restored catalog not bit-identical (%d vs %d bytes)", len(got), len(want))
	}
	if got := expectedRevenue(t, replica); math.Float64bits(got) != math.Float64bits(wantRevenue) {
		t.Fatalf("restored query result differs: %v vs %v", got, wantRevenue)
	}
	if replica.Config().MaxSamples != 2048 {
		t.Fatalf("SET did not replay: %+v", replica.Config())
	}
}

func TestStoreAppendsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db := newDB(11)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	store.Close()

	// Reopen the same directory: replay, then keep appending to the log.
	db2 := newDB(11)
	store2, info, err := Open(dir, db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 5 {
		t.Fatalf("expected 5 replayed, got %d", info.Replayed)
	}
	mustExec(t, db2, "INSERT INTO orders VALUES ('Eve', CREATE_VARIABLE('Normal', 60, 6))")
	if got := store2.Stats().LastSeq; got != 6 {
		t.Fatalf("sequence did not resume: last seq %d", got)
	}
	want := catalogBytes(t, db2)
	store2.Close()

	replica := newDB(11)
	if _, err := Restore(dir, replica); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("catalog diverged after reopen+append")
	}
}

func TestSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	db := newDB(13)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// A snapshot with nothing after it is a no-op, not a new file.
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Snapshots; n != 1 {
		t.Fatalf("idle snapshot was not a no-op: %d snapshots", n)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Kim', 12.0)")
	want := catalogBytes(t, db)
	store.Close()

	replica := newDB(13)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 5 || info.Replayed != 1 {
		t.Fatalf("expected snapshot@5 + 1 replayed, got %+v", info)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("snapshot+suffix recovery not bit-identical")
	}
}

func TestAutomaticSnapshots(t *testing.T) {
	dir := t.TempDir()
	db := newDB(17)
	store, _, err := Open(dir, db, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a)")
	for i := 0; i < 6; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (1)")
	}
	// The snapshot loop is asynchronous; Close drains it, after which at
	// least one automatic snapshot must have landed.
	store.Close()
	_, snaps, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no automatic snapshot was taken")
	}
	if len(snaps) > 2 {
		t.Fatalf("retention kept %d snapshots", len(snaps))
	}
}

// corrupt flips one byte at offset (from the end if negative).
func corrupt(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateFile cuts n bytes off the end of path.
func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// soleSegment returns the path of the only log segment in dir.
func soleSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected one segment, found %d", len(segs))
	}
	return filepath.Join(dir, segName(segs[0]))
}

func buildDir(t *testing.T, seed uint64) string {
	t.Helper()
	dir := t.TempDir()
	db := newDB(seed)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	store.Close()
	return dir
}

func TestTornTailTruncation(t *testing.T) {
	dir := buildDir(t, 19)
	truncateFile(t, soleSegment(t, dir), 3) // cut into the last record

	replica := newDB(19)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(info.TailErr, ErrTruncatedTail) {
		t.Fatalf("tail error not typed: %v", info.TailErr)
	}
	if info.Replayed != 4 || info.LastSeq != 4 {
		t.Fatalf("expected recovery to stop at record 4: %+v", info)
	}
	if info.TailTruncated == 0 {
		t.Fatal("truncated byte count not reported")
	}

	// Opening for writing truncates the torn tail and appends past it.
	db2 := newDB(19)
	store, oinfo, err := Open(dir, db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(oinfo.TailErr, ErrTruncatedTail) {
		t.Fatalf("open did not report the torn tail: %v", oinfo.TailErr)
	}
	mustExec(t, db2, "INSERT INTO orders VALUES ('Pat', 7.0)")
	if got := store.Stats().LastSeq; got != 5 {
		t.Fatalf("append after repair at wrong seq: %d", got)
	}
	store.Close()
	if _, err := Restore(dir, newDB(19)); err != nil {
		t.Fatalf("post-repair log unreadable: %v", err)
	}
}

func TestBitFlippedTailRecord(t *testing.T) {
	dir := buildDir(t, 23)
	corrupt(t, soleSegment(t, dir), -5) // inside the final record's payload

	replica := newDB(23)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(info.TailErr, ErrCorruptRecord) {
		t.Fatalf("corrupt tail record not typed: %v", info.TailErr)
	}
	if info.Replayed != 4 {
		t.Fatalf("expected 4 records to survive, got %d", info.Replayed)
	}
}

func TestGarbageFrameLength(t *testing.T) {
	dir := buildDir(t, 29)
	path := soleSegment(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header whose length is absurd must read as corruption, not
	// attempt a 4 GiB allocation.
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	info, err := Restore(dir, newDB(29))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(info.TailErr, ErrCorruptRecord) {
		t.Fatalf("garbage length not typed as corruption: %v", info.TailErr)
	}
}

func TestSnapshotFallbackToOlder(t *testing.T) {
	dir := t.TempDir()
	db := newDB(31)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	if err := store.Snapshot(); err != nil { // snapshot A @5
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Lee', 3.0)")
	if err := store.Snapshot(); err != nil { // snapshot B @6
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Mia', CREATE_VARIABLE('Normal', 50, 5))")
	want := catalogBytes(t, db)
	store.Close()

	corrupt(t, filepath.Join(dir, snapName(6)), -1) // newest snapshot body

	replica := newDB(31)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 5 {
		t.Fatalf("did not fall back to snapshot @5: %+v", info)
	}
	if len(info.SkippedSnapshots) != 1 || !strings.Contains(info.SkippedSnapshots[0], "CRC mismatch") {
		t.Fatalf("skipped snapshot not reported: %v", info.SkippedSnapshots)
	}
	if info.Replayed != 2 { // records 6 and 7, spanning two segments
		t.Fatalf("expected 2 replayed, got %+v", info)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("fallback recovery not bit-identical")
	}
}

func TestMidLogCorruptionIsFatal(t *testing.T) {
	dir := t.TempDir()
	db := newDB(37)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Lee', 3.0)")
	store.Close()

	// Corrupting a record in a non-final segment is unrecoverable without
	// the snapshot that covers it — so also delete the snapshots to force
	// the scan through the damaged segment.
	segs, snaps, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected 2 segments, got %d", len(segs))
	}
	for _, sq := range snaps {
		os.Remove(filepath.Join(dir, snapName(sq)))
	}
	corrupt(t, filepath.Join(dir, segName(segs[0])), len(segMagic)+12)

	_, err = Restore(dir, newDB(37))
	if err == nil {
		t.Fatal("mid-log corruption recovered silently")
	}
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("mid-log corruption not typed: %v", err)
	}
}

func TestFullLogReplayWithoutSnapshots(t *testing.T) {
	dir := t.TempDir()
	db := newDB(41)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	if err := store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO orders VALUES ('Lee', 3.0)")
	want := catalogBytes(t, db)
	store.Close()

	// With every snapshot gone the full log (which still starts at record
	// 1 — only the older-snapshot coverage is ever pruned, and there was
	// just one snapshot) rebuilds the catalog from scratch.
	_, snaps, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range snaps {
		os.Remove(filepath.Join(dir, snapName(sq)))
	}
	replica := newDB(41)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotSeq != 0 || info.Replayed != 6 {
		t.Fatalf("full replay surprised: %+v", info)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("full-log replay not bit-identical")
	}
}

func TestGapIsFatal(t *testing.T) {
	dir := buildDir(t, 43)
	old := soleSegment(t, dir)
	// Rename the segment so the log claims to start at record 3: records
	// 1-2 are missing and nothing covers them.
	if err := os.Rename(old, filepath.Join(dir, segName(3))); err != nil {
		t.Fatal(err)
	}
	_, err := Restore(dir, newDB(43))
	if !errors.Is(err, ErrGap) {
		t.Fatalf("gap not typed: %v", err)
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a log whose record claims a statement failed when it in
	// fact succeeds: replay must refuse rather than trust either side.
	frame, err := AppendRecord(nil, Record{Seq: 1, M: core.Mutation{
		Session: core.RootSessionID,
		Text:    "CREATE TABLE t (a)",
		Failed:  true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	body := append([]byte(segMagic), frame...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), body, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(dir, newDB(47))
	if !errors.Is(err, ErrReplayDiverged) {
		t.Fatalf("divergence not typed: %v", err)
	}
}

func TestSessionSetDoesNotClobberRoot(t *testing.T) {
	dir := t.TempDir()
	var frames []byte
	frames = append(frames, segMagic...)
	recs := []core.Mutation{
		{Session: core.RootSessionID, Text: "CREATE TABLE t (a)"},
		{Session: 2, Seed: 99, Text: "SET seed = 99"},
		{Session: 2, Seed: 99, Text: "INSERT INTO t VALUES (CREATE_VARIABLE('Normal', 1, 1))"},
	}
	for i, m := range recs {
		var err error
		frames, err = AppendRecord(frames, Record{Seq: uint64(i + 1), M: m})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), frames, 0o644); err != nil {
		t.Fatal(err)
	}
	db := newDB(53)
	info, err := Restore(dir, db)
	if err != nil {
		t.Fatal(err)
	}
	if db.Config().WorldSeed != 53 {
		t.Fatalf("session SET leaked into root config: seed %d", db.Config().WorldSeed)
	}
	if info.MaxSession != 2 {
		t.Fatalf("max session not tracked: %+v", info)
	}
	// New sessions must get identifiers beyond any logged one.
	if sid := db.Session().SessionID(); sid <= 2 {
		t.Fatalf("session allocator not floored: got id %d", sid)
	}
}

// TestRetiredVectorizeSettingRecovers: SET is a logged mutation, and until
// the row-at-a-time engine was deleted `SET vectorize = on|off` chose
// between two relational engines — so data directories written before then
// carry it, at root and at session scope. Such a log must still recover,
// to the same catalog and the same sampled answer as the log without it.
func TestRetiredVectorizeSettingRecovers(t *testing.T) {
	restore := func(recs []core.Mutation) *core.DB {
		t.Helper()
		dir := t.TempDir()
		frames := []byte(segMagic)
		for i, m := range recs {
			var err error
			frames, err = AppendRecord(frames, Record{Seq: uint64(i + 1), M: m})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, segName(1)), frames, 0o644); err != nil {
			t.Fatal(err)
		}
		db := newDB(59)
		info, err := Restore(dir, db)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if info.Replayed != len(recs) || info.TailErr != nil {
			t.Fatalf("unexpected restore info: %+v", info)
		}
		return db
	}
	root := func(text string) core.Mutation { return core.Mutation{Session: core.RootSessionID, Text: text} }
	create := root("CREATE TABLE orders (cust, price)")
	joe := root("INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")
	samples := root("SET max_samples = 2048")
	ann := root("INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)")

	// A session-scoped statement in both logs, so both recover the same
	// session-id floor (it is part of the catalog encoding).
	sess := core.Mutation{Session: 2, Seed: 59, Text: "SET workers = 1"}

	plain := restore([]core.Mutation{create, joe, sess, samples, ann})
	old := restore([]core.Mutation{
		root("SET vectorize = off"), create, joe, sess,
		{Session: 2, Seed: 59, Text: "SET vectorize = 0"},
		samples, root("SET vectorize = on"), ann,
	})
	if !bytes.Equal(catalogBytes(t, old), catalogBytes(t, plain)) {
		t.Fatal("a log carrying SET vectorize recovered a different catalog")
	}
	oc, pc := old.Config(), plain.Config()
	oc.Stats, pc.Stats = nil, nil // per-database collection points
	if oc != pc {
		t.Fatalf("SET vectorize changed the recovered configuration: %+v vs %+v", oc, pc)
	}
	if got, want := expectedRevenue(t, old), expectedRevenue(t, plain); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("a log carrying SET vectorize answers differently: %v vs %v", got, want)
	}
}

func TestConcurrentCommitsReplayBitIdentical(t *testing.T) {
	dir := t.TempDir()
	db := newDB(61)
	store, _, err := Open(dir, db, Options{SnapshotEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (w, x)")
	// Hammer the log from several sessions at once, with automatic
	// snapshots rotating underneath. The interleaving is nondeterministic,
	// but whatever order the commit lock serialized is what the log holds —
	// so replay must still be bit-identical to the live catalog.
	const workers, perWorker = 8, 25
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			sess := db.Session()
			for i := 0; i < perWorker; i++ {
				if _, err := sql.Exec(sess, "INSERT INTO t VALUES (1, CREATE_VARIABLE('Normal', 10, 1))"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	want := catalogBytes(t, db)
	store.Close()

	replica := newDB(61)
	if _, err := Restore(dir, replica); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("concurrent workload replay not bit-identical")
	}
}

func TestAppendFailurePoisonsStore(t *testing.T) {
	dir := t.TempDir()
	db := newDB(67)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")

	// Yank the segment file out from under the store: the next append's
	// write fails, which must fail-stop the store, not leave it retrying
	// at the same sequence number.
	store.mu.Lock()
	store.f.Close()
	store.mu.Unlock()
	if _, err := sql.Exec(db, "INSERT INTO t VALUES (2)"); err == nil {
		t.Fatal("append with a broken log acknowledged")
	}
	if _, err := sql.Exec(db, "INSERT INTO t VALUES (3)"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation after append failure not refused as poisoned: %v", err)
	}
	if err := store.Snapshot(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot of a poisoned store not refused: %v", err)
	}
	if store.Stats().Poisoned == "" {
		t.Fatal("poisoned state not reported in Stats")
	}
	_ = store.Close() // sync of the yanked file fails; nothing left to lose

	// Recovery sees exactly the acknowledged prefix: the two durable
	// records, none of the refused statements.
	replica := newDB(67)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 2 || info.LastSeq != 2 {
		t.Fatalf("expected the 2 acknowledged records, got %+v", info)
	}
}

func TestSymbolicArgumentRejectedBeforeApply(t *testing.T) {
	dir := t.TempDir()
	db := newDB(71)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mustExec(t, db, "CREATE TABLE t (a)")
	v, err := db.CreateVariable("Normal", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// An unloggable (symbolic) argument must be refused before the catalog
	// mutates — otherwise the applied-but-unlogged row would poison the
	// store and diverge the running catalog from its log.
	_, err = sql.ExecContext(context.Background(), db, "INSERT INTO t VALUES (?)",
		ctable.Symbolic(expr.NewVar(v)))
	if !errors.Is(err, core.ErrUnloggedMutation) {
		t.Fatalf("symbolic argument not refused as unloggable: %v", err)
	}
	if st := store.Stats(); st.Poisoned != "" {
		t.Fatalf("pre-apply rejection poisoned the store: %s", st.Poisoned)
	}
	mustExec(t, db, "INSERT INTO t VALUES (4)") // store still healthy
	out, err := sql.Exec(db, "SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tuples) != 1 {
		t.Fatalf("rejected statement left partial state: %d rows", len(out.Tuples))
	}
}

func TestMidSegmentCorruptionInFinalSegmentIsFatal(t *testing.T) {
	dir := buildDir(t, 73)
	// Flip a byte in the FIRST record of the only (hence final) segment:
	// intact, acknowledged records follow the damage, so this is
	// mid-segment corruption — not a torn tail — and recovery must refuse
	// to silently truncate those records away.
	corrupt(t, soleSegment(t, dir), len(segMagic)+12)

	_, err := Restore(dir, newDB(73))
	if !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("mid-segment damage in final segment not fatal: %v", err)
	}
	// Opening for writing must refuse identically, without repair
	// truncating the surviving records.
	before, err := os.ReadFile(soleSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, newDB(73), Options{}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("open did not refuse mid-segment damage: %v", err)
	}
	after, err := os.ReadFile(soleSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed open modified the damaged segment")
	}
}

func TestSnapshotBeyondLogEndResumesAfterIt(t *testing.T) {
	dir := t.TempDir()
	db := newDB(79)
	store, _, err := Open(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seedStatements(t, db)
	want := catalogBytes(t, db)
	if err := store.Snapshot(); err != nil { // snap@5, rotates to a fresh segment
		t.Fatal(err)
	}
	store.Close()

	// Lose the post-snapshot segment and tear the last record of the old
	// one: the log now ends at record 4 while the surviving snapshot
	// covers through 5. The snapshot is authoritative; recovery must not
	// wrap the "records since snapshot" count negative, and appends must
	// resume after the snapshot's coverage, never inside it.
	segs, _, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("expected 2 segments after rotation, got %d", len(segs))
	}
	os.Remove(filepath.Join(dir, segName(segs[1])))
	truncateFile(t, filepath.Join(dir, segName(segs[0])), 3)

	replica := newDB(79)
	info, err := Restore(dir, replica)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 5 || info.Replayed != 0 {
		t.Fatalf("expected snapshot-authoritative recovery to seq 5: %+v", info)
	}
	if !bytes.Equal(catalogBytes(t, replica), want) {
		t.Fatal("snapshot-only recovery not bit-identical")
	}

	db2 := newDB(79)
	store2, _, err := Open(dir, db2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if since := store2.Stats().SinceSnapshot; since != 0 {
		t.Fatalf("since-snapshot count wrapped: %d", since)
	}
	mustExec(t, db2, "INSERT INTO orders VALUES ('Zoe', 9.0)")
	if got := store2.Stats().LastSeq; got != 6 {
		t.Fatalf("append did not resume past snapshot coverage: seq %d", got)
	}
	want2 := catalogBytes(t, db2)
	store2.Close()

	replica2 := newDB(79)
	if _, err := Restore(dir, replica2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(catalogBytes(t, replica2), want2) {
		t.Fatal("post-resume recovery not bit-identical")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	m := core.Mutation{
		Session: 9, Seed: 1234567, Failed: true,
		Text: "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
		Args: []ctable.Value{
			ctable.Null(), ctable.Float(-2.5), ctable.Int(1 << 40),
			ctable.String_("héllo\x00world"), ctable.Bool(true),
		},
	}
	frame, err := AppendRecord(nil, Record{Seq: 77, M: m})
	if err != nil {
		t.Fatal(err)
	}
	recs, n, tailErr := scanSegment(frame, 77)
	if tailErr != nil || n != len(frame) || len(recs) != 1 {
		t.Fatalf("scan failed: %d recs, %d bytes, %v", len(recs), n, tailErr)
	}
	got := recs[0]
	if got.Seq != 77 || got.M.Session != 9 || got.M.Seed != 1234567 || !got.M.Failed || got.M.Text != m.Text {
		t.Fatalf("header fields mangled: %+v", got)
	}
	if len(got.M.Args) != len(m.Args) {
		t.Fatalf("args count: %d", len(got.M.Args))
	}
	for i := range m.Args {
		if got.M.Args[i] != m.Args[i] {
			t.Fatalf("arg %d: %v != %v", i, got.M.Args[i], m.Args[i])
		}
	}
}

func TestSymbolicArgumentRejected(t *testing.T) {
	db := newDB(59)
	v, err := db.CreateVariable("Normal", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = AppendRecord(nil, Record{Seq: 1, M: core.Mutation{
		Text: "INSERT INTO t VALUES (?)",
		Args: []ctable.Value{ctable.Symbolic(expr.NewVar(v))},
	}})
	if err == nil {
		t.Fatal("symbolic argument encoded")
	}
}
