package repl

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pip/internal/wal"
)

// FuzzReplDecode fuzzes a GET /v1/repl/stream response as a Follower reads
// it from a real HTTP server — the four header values (Pip-Seed,
// Pip-Last-Seq, Pip-Snapshot-Seq, Pip-Snapshot-Bytes) and the body as
// separate arguments. One connection epoch must not panic, must apply no
// record past the stream's valid prefix, and must end either cleanly (the
// stream ran out, which Run treats as a dropped connection and redials)
// or with one of the integrity errors isFatal latches — never with an
// error Run would retry forever.
//
// The checked-in corpus (testdata/fuzz/FuzzReplDecode) holds clean
// records (hello-rec, the "hello" being the headers), a snapshot then a
// record (hello-snap-rec), a truncated frame, a bad CRC and records out of
// order; a snapshot header declaring 1 TiB over a 10-byte body is added
// here.
func FuzzReplDecode(f *testing.F) {
	f.Add(uint64(7), uint64(1), uint64(1), uint64(1<<40), []byte("PIPSNP01xx"))

	// One server for the whole run; each input is served to the follower
	// whose replica id it is stored under.
	var streams sync.Map
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+AckPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET "+StreamPath, func(w http.ResponseWriter, r *http.Request) {
		fs, _ := streams.Load(r.URL.Query().Get("replica"))
		fs.(fakeStream).serve(w)
	})
	ts := httptest.NewServer(mux)
	f.Cleanup(ts.Close)
	var inputs atomic.Int64

	f.Fuzz(func(t *testing.T, seed, lastSeq, snapSeq, snapBytes uint64, body []byte) {
		id := fmt.Sprintf("fuzz-%d", inputs.Add(1))
		fs := fakeStream{seed: seed, lastSeq: lastSeq, snapSeq: snapSeq, snapBytes: snapBytes, body: body}
		streams.Store(id, fs)
		defer streams.Delete(id)
		fl := NewFollower(newDB(7), FollowerOptions{Primary: ts.URL, ReplicaID: id, Seed: 7})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := fl.streamOnce(ctx); err != nil && !isFatal(err) {
			t.Fatalf("a whole stream from a healthy server ended in a retryable error: %v", err)
		}
		checkApplied(t, fs, fl)
	})
}

// checkApplied re-reads the stream the way the follower must — the
// snapshot image the headers announce, then frames through the WAL's own
// frame decoder — and checks every record the follower applied. The
// follower stops at the first frame it refuses, so the records it applied
// are the first fl.records frames; each must decode and follow the
// previous position (the last record, or the loaded snapshot image) by
// exactly one.
func checkApplied(t *testing.T, fs fakeStream, fl *Follower) {
	t.Helper()
	left := fl.records.Load()
	if left == 0 {
		return
	}
	next, last := uint64(1), uint64(0)
	body := fs.body
	if fs.snapSeq > 0 {
		if fs.snapBytes > uint64(len(body)) {
			t.Fatalf("records applied after a %d-byte snapshot image the body cannot hold", fs.snapBytes)
		}
		seq, err := wal.DecodeSnapshotImage(body[:fs.snapBytes], newDB(7))
		if err != nil || seq != fs.snapSeq {
			t.Fatalf("records applied after a snapshot image covering %d (%v), header says %d", seq, err, fs.snapSeq)
		}
		next, body = seq+1, body[fs.snapBytes:]
	}
	frames := bytes.NewReader(body)
	for ; left > 0; left-- {
		rec, _, err := wal.ReadRecord(frames)
		if err != nil {
			t.Fatalf("applied a record past the stream's valid prefix (%v)", err)
		}
		if rec.Seq != next {
			t.Fatalf("applied record %d where %d was due", rec.Seq, next)
		}
		next, last = rec.Seq+1, rec.Seq
	}
	if fl.AppliedSeq() != last {
		t.Fatalf("follower reports position %d after applying record %d last", fl.AppliedSeq(), last)
	}
}
