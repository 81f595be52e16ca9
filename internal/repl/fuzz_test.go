package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pip/internal/wal"
)

// FuzzReplDecode fuzzes the body of GET /v1/repl/stream as a Follower reads
// it from a real HTTP server: one connection epoch over arbitrary bytes must
// not panic, must apply no record whose payload CRC or sequence check fails,
// and must end either cleanly (the stream ran out, which Run treats as a
// dropped connection and redials) or with one of the integrity errors
// isFatal latches — never with an error Run would retry forever.
//
// The checked-in corpus (testdata/fuzz/FuzzReplDecode) holds hello + rec,
// hello + snap + snapend + rec, a truncated line, a bad CRC and records out
// of order; the over-long line is added here, being too large to check in.
func FuzzReplDecode(f *testing.F) {
	hello := `{"k":"hello","seed":7,"last_seq":1}` + "\n"
	f.Add([]byte(hello + `{"k":"ping","last_seq":1,"data":"` + strings.Repeat("A", maxStreamLine) + `"}` + "\n"))

	// One server for the whole run; each input is served to the follower
	// whose replica id it is stored under.
	var bodies sync.Map
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+AckPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET "+StreamPath, func(w http.ResponseWriter, r *http.Request) {
		body, _ := bodies.Load(r.URL.Query().Get("replica"))
		w.Write(body.([]byte))
	})
	ts := httptest.NewServer(mux)
	f.Cleanup(ts.Close)
	var inputs atomic.Int64

	f.Fuzz(func(t *testing.T, body []byte) {
		id := fmt.Sprintf("fuzz-%d", inputs.Add(1))
		bodies.Store(id, body)
		defer bodies.Delete(id)
		fl := NewFollower(newDB(7), FollowerOptions{Primary: ts.URL, ReplicaID: id, Seed: 7})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := fl.streamOnce(ctx); err != nil && !isFatal(err) {
			t.Fatalf("a whole stream from a healthy server ended in a retryable error: %v", err)
		}
		checkApplied(t, body, fl)
	})
}

// checkApplied reads body the way the follower does — newline-terminated
// lines, trailing CR/LF trimmed, each decoded as a frame — and checks every
// record the follower applied. The follower stops at the first frame it
// refuses, so the records it applied are the first fl.records rec frames;
// each must match its CRC, decode to the sequence number its frame names,
// and follow the previous position (the last record, or a loaded snapshot
// image) by exactly one.
func checkApplied(t *testing.T, body []byte, fl *Follower) {
	t.Helper()
	left := fl.records.Load()
	next, last := uint64(1), uint64(0)
	var snap []byte
	for line := range bytes.Lines(body) {
		if left == 0 || !bytes.HasSuffix(line, []byte("\n")) {
			break
		}
		var c streamChunk
		if json.Unmarshal(bytes.TrimRight(line, "\r\n"), &c) != nil {
			break
		}
		switch c.K {
		case "snap":
			snap = append(snap, c.Data...)
		case "snapend":
			seq, err := wal.DecodeSnapshotImage(snap, newDB(7))
			if err != nil {
				t.Fatalf("records applied after a snapshot image that does not decode: %v", err)
			}
			next, snap = seq+1, nil
		case "rec":
			if wal.Checksum(c.Payload) != c.PCRC {
				t.Fatalf("applied record %d whose payload fails its CRC", c.Seq)
			}
			rec, err := wal.DecodePayload(c.Payload)
			if err != nil || rec.Seq != c.Seq {
				t.Fatalf("applied record %d whose payload is %+v (%v)", c.Seq, rec, err)
			}
			if c.Seq != next {
				t.Fatalf("applied record %d where %d was due", c.Seq, next)
			}
			next, last = c.Seq+1, c.Seq
			left--
		}
	}
	if left != 0 {
		t.Fatalf("follower applied %d records more than the stream's valid prefix holds", left)
	}
	if fl.records.Load() > 0 && fl.AppliedSeq() != last {
		t.Fatalf("follower reports position %d after applying record %d last", fl.AppliedSeq(), last)
	}
}
