package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pip/internal/core"
	"pip/internal/sampler"
	"pip/internal/sql"
	"pip/internal/wal"
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

func catalogBytes(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.EncodeCatalog(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectedRevenue samples the running example's aggregate; equal bits mean
// the two databases draw identical sample streams from identical state.
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

// primaryFixture is one live primary: a durable database, its wal store,
// and the replication handler served over HTTP.
type primaryFixture struct {
	db    *core.DB
	store *wal.Store
	prim  *Primary
	ts    *httptest.Server
}

func newPrimaryFixture(t *testing.T, seed uint64) *primaryFixture {
	t.Helper()
	db := newDB(seed)
	store, _, err := wal.Open(t.TempDir(), db, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	prim := NewPrimary(store, seed)
	ts := httptest.NewServer(prim.Handler())
	t.Cleanup(ts.Close)
	return &primaryFixture{db: db, store: store, prim: prim, ts: ts}
}

// follow starts a follower of fx on a fresh replica database and returns
// both, with Run already going in the background.
func follow(t *testing.T, fx *primaryFixture, seed uint64) (*core.DB, *Follower) {
	t.Helper()
	rdb := newDB(seed)
	f := NewFollower(rdb, FollowerOptions{
		Primary:          fx.ts.URL,
		ReplicaID:        "r1",
		Seed:             seed,
		ReconnectBackoff: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("follower did not stop on context cancellation")
		}
	})
	return rdb, f
}

func waitSeq(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitForSeq(ctx, seq); err != nil {
		t.Fatalf("waiting for seq %d (applied %d): %v", seq, f.AppliedSeq(), err)
	}
}

func TestNormalizePrimary(t *testing.T) {
	for _, tc := range []struct{ in, base, display string }{
		{"localhost:7433", "http://localhost:7433", "pip://localhost:7433"},
		{"pip://localhost:7433", "http://localhost:7433", "pip://localhost:7433"},
		{"http://localhost:7433", "http://localhost:7433", "pip://localhost:7433"},
		{"http://localhost:7433/", "http://localhost:7433", "pip://localhost:7433"},
	} {
		base, display := normalizePrimary(tc.in)
		if base != tc.base || display != tc.display {
			t.Fatalf("normalizePrimary(%q) = (%q, %q), want (%q, %q)", tc.in, base, display, tc.base, tc.display)
		}
	}
}

// TestFollowerBitIdentity is the tentpole's acceptance oracle in-process: a
// replica that streamed the primary's log holds a byte-identical catalog
// and answers a sampling aggregate with the same float bits, both after
// bootstrap replay and after live records.
func TestFollowerBitIdentity(t *testing.T) {
	fx := newPrimaryFixture(t, 7)
	mustExec(t, fx.db, "CREATE TABLE orders (cust, price)")
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)")

	rdb, f := follow(t, fx, 7)
	waitSeq(t, f, 3)
	if got, want := catalogBytes(t, rdb), catalogBytes(t, fx.db); !bytes.Equal(got, want) {
		t.Fatalf("replayed catalog not bit-identical (%d vs %d bytes)", len(got), len(want))
	}

	// Live records: new commits stream through and stay bit-identical.
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Eve', CREATE_VARIABLE('Normal', 60, 3))")
	waitSeq(t, f, 4)
	if got, want := catalogBytes(t, rdb), catalogBytes(t, fx.db); !bytes.Equal(got, want) {
		t.Fatalf("live-applied catalog not bit-identical (%d vs %d bytes)", len(got), len(want))
	}
	pr, rr := expectedRevenue(t, fx.db), expectedRevenue(t, rdb)
	if math.Float64bits(pr) != math.Float64bits(rr) {
		t.Fatalf("sampled aggregate differs: primary %v, replica %v", pr, rr)
	}

	// Client sessions of the replica refuse writes with the typed error
	// naming the primary. (The root handle is the follower's applier root —
	// pipd never hands it to clients; every served session is a Session().)
	sess := rdb.Session()
	_, err := sql.Exec(sess, "INSERT INTO orders VALUES ('Mal', 1)")
	if !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica write: got %v, want ErrReadOnly", err)
	}
	if !strings.Contains(err.Error(), strings.TrimPrefix(fx.ts.URL, "http://")) {
		t.Fatalf("replica write error %q does not name the primary", err)
	}
	if _, err := sql.Exec(sess, "CREATE TABLE x (a)"); !errors.Is(err, core.ErrReadOnly) {
		t.Fatalf("replica session DDL: got %v, want ErrReadOnly", err)
	}

	// Lag accounting converges with no keep-alive traffic: the follower
	// acks once it has applied everything it read, so the primary sees
	// the replica acked at its own tail right after the last commit.
	deadline := time.Now().Add(time.Second)
	for {
		st := fx.prim.Stats()
		if len(st.Replicas) == 1 && st.Replicas[0].ID == "r1" &&
			st.Replicas[0].AckedSeq == st.LastSeq && st.Replicas[0].LagRecords == 0 &&
			st.Replicas[0].Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica lag never converged: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fst := f.Stats(); fst.LagRecords != 0 || !fst.Connected || fst.FailStopped {
		t.Fatalf("follower stats off after catch-up: %+v", fst)
	}
}

// TestFollowerAppliesRetiredVectorizeSetting: SET statements ship to
// followers, and a primary whose log predates the deletion of the
// row-at-a-time engine carries `SET vectorize = on|off`. A follower must
// apply that log, and hold the catalog and give the sampled answer of a
// follower whose primary never logged it.
func TestFollowerAppliesRetiredVectorizeSetting(t *testing.T) {
	replicate := func(stmts []string) *core.DB {
		t.Helper()
		fx := newPrimaryFixture(t, 7)
		for _, q := range stmts {
			mustExec(t, fx.db, q)
		}
		rdb, f := follow(t, fx, 7)
		waitSeq(t, f, uint64(len(stmts)))
		if !bytes.Equal(catalogBytes(t, rdb), catalogBytes(t, fx.db)) {
			t.Fatal("replica catalog differs from its primary")
		}
		return rdb
	}
	const (
		create = "CREATE TABLE orders (cust, price)"
		joe    = "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))"
		ann    = "INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)"
	)
	plain := replicate([]string{create, joe, ann})
	old := replicate([]string{"SET vectorize = off", create, joe, "SET vectorize = on", ann})
	if !bytes.Equal(catalogBytes(t, old), catalogBytes(t, plain)) {
		t.Fatal("a log carrying SET vectorize replicated to a different catalog")
	}
	if got, want := expectedRevenue(t, old), expectedRevenue(t, plain); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("a log carrying SET vectorize answers differently: %v vs %v", got, want)
	}
}

// TestFollowerSnapshotBootstrap covers the catch-up path: a replica whose
// resume point was pruned into a snapshot bootstraps from the streamed
// image, replays the suffix, and still matches bit-for-bit.
func TestFollowerSnapshotBootstrap(t *testing.T) {
	fx := newPrimaryFixture(t, 7)
	mustExec(t, fx.db, "CREATE TABLE orders (cust, price)")
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")
	if err := fx.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5))")
	if err := fx.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Record 1..3 now live only inside snapshots; the wire must ship one.
	if _, err := fx.store.Subscribe(1); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("precondition: expected pruned history, got %v", err)
	}
	mustExec(t, fx.db, "INSERT INTO orders VALUES ('Bob', 42.5)")

	rdb, f := follow(t, fx, 7)
	waitSeq(t, f, 4)
	if st := f.Stats(); st.SnapshotsLoaded == 0 {
		t.Fatalf("follower caught up without loading a snapshot: %+v", st)
	}
	if got, want := catalogBytes(t, rdb), catalogBytes(t, fx.db); !bytes.Equal(got, want) {
		t.Fatalf("snapshot-bootstrapped catalog not bit-identical (%d vs %d bytes)", len(got), len(want))
	}
	pr, rr := expectedRevenue(t, fx.db), expectedRevenue(t, rdb)
	if math.Float64bits(pr) != math.Float64bits(rr) {
		t.Fatalf("sampled aggregate differs after bootstrap: primary %v, replica %v", pr, rr)
	}
}

// TestFollowerReconnectResume kills the primary's listener mid-stream,
// commits more records, brings the listener back on the same address, and
// requires the follower to resume from its own applied position — no
// re-apply, no gap — and converge bit-identically.
func TestFollowerReconnectResume(t *testing.T) {
	db := newDB(7)
	store, _, err := wal.Open(t.TempDir(), db, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	prim := NewPrimary(store, 7)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	hs := &http.Server{Handler: prim.Handler()}
	go hs.Serve(ln)

	mustExec(t, db, "CREATE TABLE orders (cust, price)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")

	rdb := newDB(7)
	f := NewFollower(rdb, FollowerOptions{
		Primary:          addr,
		ReplicaID:        "r1",
		Seed:             7,
		ReconnectBackoff: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	waitSeq(t, f, 2)

	// Cut every open stream and the listener, then keep committing.
	hs.Close()
	mustExec(t, db, "INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5))")
	mustExec(t, db, "INSERT INTO orders VALUES ('Bob', 42.5)")
	time.Sleep(50 * time.Millisecond) // let at least one redial fail

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: prim.Handler()}
	go hs2.Serve(ln2)
	defer hs2.Close()

	waitSeq(t, f, 4)
	if got, want := catalogBytes(t, rdb), catalogBytes(t, db); !bytes.Equal(got, want) {
		t.Fatalf("post-reconnect catalog not bit-identical (%d vs %d bytes)", len(got), len(want))
	}
	st := f.Stats()
	if st.Reconnects == 0 {
		t.Fatalf("follower never reconnected: %+v", st)
	}
	if st.RecordsApplied != 4 {
		t.Fatalf("records applied %d, want 4 (resume must not re-apply)", st.RecordsApplied)
	}
	if err := f.Err(); err != nil {
		t.Fatalf("healthy reconnect latched an error: %v", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v on cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// fakeStream is a scripted stream response: the four header values and
// the body.
type fakeStream struct {
	seed, lastSeq, snapSeq, snapBytes uint64
	body                              []byte
}

// serve writes fs as a primary would answer GET /v1/repl/stream.
func (fs fakeStream) serve(w http.ResponseWriter) {
	h := w.Header()
	h.Set(hdrSeed, strconv.FormatUint(fs.seed, 10))
	h.Set(hdrLastSeq, strconv.FormatUint(fs.lastSeq, 10))
	h.Set(hdrSnapshotSeq, strconv.FormatUint(fs.snapSeq, 10))
	h.Set(hdrSnapshotBytes, strconv.FormatUint(fs.snapBytes, 10))
	w.Write(fs.body)
}

// fakePrimary serves a scripted stream (and swallows acks), for driving
// the follower's integrity checks with malformed input no real primary
// would produce.
func fakePrimary(t *testing.T, fs fakeStream) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+AckPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET "+StreamPath, func(w http.ResponseWriter, r *http.Request) {
		fs.serve(w)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// runUntilFatal follows ts and returns the error Run latched.
func runUntilFatal(t *testing.T, ts *httptest.Server, seed uint64) error {
	t.Helper()
	f := NewFollower(newDB(seed), FollowerOptions{
		Primary:          ts.URL,
		Seed:             seed,
		ReconnectBackoff: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.Run(ctx)
	if err == nil {
		t.Fatal("Run returned nil; expected a latched integrity failure")
	}
	if ferr := f.Err(); !errors.Is(err, errors.Unwrap(ferr)) && ferr == nil {
		t.Fatalf("Err() = %v after Run returned %v", ferr, err)
	}
	if !f.Stats().FailStopped {
		t.Fatal("FailStopped not reported after a fatal error")
	}
	return err
}

// encodeRecord frames one logged statement exactly as a segment file holds
// it.
func encodeRecord(t *testing.T, seq uint64, text string, failed bool) []byte {
	t.Helper()
	frame, err := wal.AppendRecord(nil, wal.Record{Seq: seq, M: core.Mutation{
		Session: core.RootSessionID, Seed: 7, Text: text, Failed: failed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// snapshotImage returns a real snapshot file of a seed-7 store and the
// sequence number it covers.
func snapshotImage(t *testing.T) ([]byte, uint64) {
	t.Helper()
	fx := newPrimaryFixture(t, 7)
	mustExec(t, fx.db, "CREATE TABLE t (a)")
	mustExec(t, fx.db, "INSERT INTO t VALUES (1)")
	if err := fx.store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	seq, path, ok := fx.store.NewestSnapshot()
	if !ok {
		t.Fatal("no snapshot after Snapshot")
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return img, seq
}

func TestFollowerSeedMismatchFailStops(t *testing.T) {
	ts := fakePrimary(t, fakeStream{seed: 99})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("got %v, want ErrSeedMismatch", err)
	}
}

func TestFollowerCorruptFrameFailStops(t *testing.T) {
	frame := encodeRecord(t, 1, "CREATE TABLE t (a)", false)
	frame[4] ^= 0xef // bit rot on the wire, in the frame's CRC
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, body: frame})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerImplausibleFrameLengthFailStops(t *testing.T) {
	frame := encodeRecord(t, 1, "CREATE TABLE t (a)", false)
	binary.LittleEndian.PutUint32(frame, 1<<31) // past the log's record bound
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, body: frame})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerUndecodablePayloadFailStops(t *testing.T) {
	garbage := []byte("not a wal payload")
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(garbage)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(garbage, crc32.MakeTable(crc32.Castagnoli)))
	frame = append(frame, garbage...)
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, body: frame})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerReorderedStreamFailStops(t *testing.T) {
	// Record 2 arrives where record 1 belongs: a gap the applier refuses.
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 2, body: encodeRecord(t, 2, "CREATE TABLE t (a)", false)})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("got %v, want ErrStreamGap", err)
	}
}

func TestFollowerReplayDivergenceFailStops(t *testing.T) {
	// The primary logged this insert as a success; on the replica the
	// table does not exist, so the outcome contradicts the log.
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, body: encodeRecord(t, 1, "INSERT INTO nosuch VALUES (1)", false)})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, wal.ErrReplayDiverged) {
		t.Fatalf("got %v, want ErrReplayDiverged", err)
	}
}

func TestFollowerCorruptSnapshotImageFailStops(t *testing.T) {
	img := []byte("PIPSNP01 but not really a snapshot")
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, snapSeq: 1, snapBytes: uint64(len(img)), body: img})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, wal.ErrSnapshotCorrupt) {
		t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
	}
}

func TestFollowerTruncatedSnapshotFailStops(t *testing.T) {
	img := []byte("some snapshot image bytes")
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, snapSeq: 1, snapBytes: uint64(len(img)), body: img[:10]})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

// TestFollowerSnapshotSeqMismatchFailStops: a valid image whose covered
// sequence is not the one Pip-Snapshot-Seq announced is refused.
func TestFollowerSnapshotSeqMismatchFailStops(t *testing.T) {
	img, seq := snapshotImage(t)
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: seq + 1, snapSeq: seq + 1, snapBytes: uint64(len(img)), body: img})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

// TestFollowerHugeSnapshotHeader: a primary declaring a 1 TiB snapshot and
// sending 10 bytes costs the follower the bytes sent, not the bytes
// declared, and ends the epoch in an error Run either retries or latches
// as ErrStreamCorrupt.
func TestFollowerHugeSnapshotHeader(t *testing.T) {
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 1, snapSeq: 1, snapBytes: 1 << 40, body: []byte("PIPSNP01xx")})
	f := NewFollower(newDB(7), FollowerOptions{Primary: ts.URL, Seed: 7})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := f.streamOnce(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil && isFatal(err) && !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want a transient error or ErrStreamCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("reading a 10-byte body allocated %d bytes", grew)
	}
}

func TestFollowerPrimaryBehindFailStops(t *testing.T) {
	ts := fakePrimary(t, fakeStream{seed: 7, lastSeq: 2})
	f := NewFollower(newDB(7), FollowerOptions{
		Primary:          ts.URL,
		Seed:             7,
		ReconnectBackoff: 5 * time.Millisecond,
	})
	f.applied.Store(5) // this replica has history the primary lacks
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.Run(ctx); !errors.Is(err, ErrPrimaryBehind) {
		t.Fatalf("got %v, want ErrPrimaryBehind", err)
	}
}

// TestStreamIsTheLogOnDisk: for a store that was never snapshotted, the
// stream from record 1 is the four headers and then, byte for byte, the
// segment files' bodies after their magic.
func TestStreamIsTheLogOnDisk(t *testing.T) {
	db := newDB(7)
	dir := t.TempDir()
	store, _, err := wal.Open(dir, db, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mustExec(t, db, "CREATE TABLE orders (cust, price)")
	mustExec(t, db, "INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))")
	if _, err := sql.Exec(db, "INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("insert into a missing table succeeded")
	} // and is logged, as failed
	mustExec(t, db, "SET samples = 500")
	ts := httptest.NewServer(NewPrimary(store, 7).Handler())
	defer ts.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	var disk []byte
	for _, path := range segs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		disk = append(disk, b[len("PIPWAL01"):]...)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+StreamPath+"?from=1&replica=t", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for name, want := range map[string]string{hdrSeed: "7", hdrLastSeq: "4", hdrSnapshotSeq: "0", hdrSnapshotBytes: "0"} {
		if got := resp.Header.Get(name); got != want {
			t.Errorf("header %s = %q, want %q", name, got, want)
		}
	}
	wire := make([]byte, len(disk))
	if _, err := io.ReadFull(resp.Body, wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, disk) {
		t.Fatalf("stream body differs from the segment bodies:\n wire %x\n disk %x", wire, disk)
	}
}

// TestReplicaIDBound: both endpoints take the replica id from the query
// and refuse one longer than maxReplicaID bytes with 400, before it can
// become a key of the primary's replica table.
func TestReplicaIDBound(t *testing.T) {
	fx := newPrimaryFixture(t, 7)
	ack := func(id string) int {
		rec := httptest.NewRecorder()
		fx.prim.ServeAck(rec, httptest.NewRequest(http.MethodPost, AckPath+"?seq=9&replica="+id, nil))
		return rec.Code
	}
	if code := ack(strings.Repeat("r", maxReplicaID)); code != http.StatusNoContent {
		t.Fatalf("ack with a %d-byte id: HTTP %d", maxReplicaID, code)
	}
	before := fx.prim.Stats().Replicas
	long := strings.Repeat("r", 1<<20)
	if code := ack(long); code != http.StatusBadRequest {
		t.Errorf("ack with a 1 MiB id: HTTP %d, want 400", code)
	}
	// An accepted stream would stay open; the deadline ends it.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	rec := httptest.NewRecorder()
	fx.prim.ServeStream(rec, httptest.NewRequestWithContext(ctx, http.MethodGet, StreamPath+"?from=1&replica="+long, nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("stream with a 1 MiB id: HTTP %d, want 400", rec.Code)
	}
	if after := fx.prim.Stats().Replicas; !reflect.DeepEqual(after, before) {
		t.Fatalf("refused requests changed replica progress (%d replicas known, was %d)", len(after), len(before))
	}
}
