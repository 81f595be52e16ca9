package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	prim.PingEvery = 20 * time.Millisecond
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

	// Lag accounting converges: the primary sees the replica acked at its
	// own tail within a ping interval or two.
	deadline := time.Now().Add(5 * time.Second)
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
	prim.PingEvery = 20 * time.Millisecond

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

// fakePrimary serves a scripted NDJSON stream (and swallows acks), for
// driving the follower's integrity checks with malformed input no real
// primary would produce.
func fakePrimary(t *testing.T, chunks ...streamChunk) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+AckPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET "+StreamPath, func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		for _, c := range chunks {
			enc.Encode(c)
		}
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

// encodeRecord builds a valid wire payload for one logged statement.
func encodeRecord(t *testing.T, seq uint64, text string, failed bool) streamChunk {
	t.Helper()
	payload, err := wal.EncodePayload(wal.Record{Seq: seq, M: core.Mutation{
		Session: core.RootSessionID, Seed: 7, Text: text, Failed: failed,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return streamChunk{K: "rec", Seq: seq, Payload: payload, PCRC: wal.Checksum(payload)}
}

func TestFollowerSeedMismatchFailStops(t *testing.T) {
	ts := fakePrimary(t, streamChunk{K: "hello", Seed: 99, LastSeq: 0})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("got %v, want ErrSeedMismatch", err)
	}
}

func TestFollowerCorruptFrameFailStops(t *testing.T) {
	rec := encodeRecord(t, 1, "CREATE TABLE t (a)", false)
	rec.PCRC ^= 0xdeadbeef // bit rot on the wire
	ts := fakePrimary(t, streamChunk{K: "hello", Seed: 7, LastSeq: 1}, rec)
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerUndecodablePayloadFailStops(t *testing.T) {
	garbage := []byte("not a wal payload")
	ts := fakePrimary(t,
		streamChunk{K: "hello", Seed: 7, LastSeq: 1},
		streamChunk{K: "rec", Seq: 1, Payload: garbage, PCRC: wal.Checksum(garbage)})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerReorderedStreamFailStops(t *testing.T) {
	// Record 2 arrives where record 1 belongs: a gap the applier refuses.
	ts := fakePrimary(t,
		streamChunk{K: "hello", Seed: 7, LastSeq: 2},
		encodeRecord(t, 2, "CREATE TABLE t (a)", false))
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamGap) {
		t.Fatalf("got %v, want ErrStreamGap", err)
	}
}

func TestFollowerReplayDivergenceFailStops(t *testing.T) {
	// The primary logged this insert as a success; on the replica the
	// table does not exist, so the outcome contradicts the log.
	ts := fakePrimary(t,
		streamChunk{K: "hello", Seed: 7, LastSeq: 1},
		encodeRecord(t, 1, "INSERT INTO nosuch VALUES (1)", false))
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, wal.ErrReplayDiverged) {
		t.Fatalf("got %v, want ErrReplayDiverged", err)
	}
}

func TestFollowerCorruptSnapshotImageFailStops(t *testing.T) {
	img := []byte("PIPSNP01 but not really a snapshot")
	ts := fakePrimary(t,
		streamChunk{K: "hello", Seed: 7, LastSeq: 1, SnapSeq: 1},
		streamChunk{K: "snap", Data: img},
		streamChunk{K: "snapend", CRC: wal.Checksum(img), Size: int64(len(img))})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, wal.ErrSnapshotCorrupt) {
		t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
	}
}

func TestFollowerTruncatedSnapshotFailStops(t *testing.T) {
	img := []byte("some snapshot image bytes")
	ts := fakePrimary(t,
		streamChunk{K: "hello", Seed: 7, LastSeq: 1, SnapSeq: 1},
		streamChunk{K: "snap", Data: img[:10]},
		streamChunk{K: "snapend", CRC: wal.Checksum(img), Size: int64(len(img))})
	if err := runUntilFatal(t, ts, 7); !errors.Is(err, ErrStreamCorrupt) {
		t.Fatalf("got %v, want ErrStreamCorrupt", err)
	}
}

func TestFollowerPrimaryBehindFailStops(t *testing.T) {
	ts := fakePrimary(t, streamChunk{K: "hello", Seed: 7, LastSeq: 2})
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

// TestServeAckBodyLimit: an ack is read through a small body limit. A 1 MiB
// body — a valid ack padded with whitespace, or one carrying a megabyte
// replica id — is refused with 413 and changes no replica's progress.
func TestServeAckBodyLimit(t *testing.T) {
	fx := newPrimaryFixture(t, 7)
	post := func(body string) int {
		rec := httptest.NewRecorder()
		fx.prim.ServeAck(rec, httptest.NewRequest(http.MethodPost, AckPath, strings.NewReader(body)))
		return rec.Code
	}
	if code := post(`{"replica":"r1","seq":0}`); code != http.StatusNoContent {
		t.Fatalf("well-formed ack: HTTP %d", code)
	}
	before := fx.prim.Stats().Replicas
	for name, body := range map[string]string{
		"padded":  `{"replica":"r2","seq":9}` + strings.Repeat(" ", 1<<20),
		"long id": `{"replica":"` + strings.Repeat("r", 1<<20) + `","seq":9}`,
	} {
		if code := post(body); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s 1 MiB ack: HTTP %d, want 413", name, code)
		}
	}
	if after := fx.prim.Stats().Replicas; !reflect.DeepEqual(after, before) {
		t.Fatalf("refused acks changed replica progress (%d replicas known, was %d)", len(after), len(before))
	}
}
