package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pip"
)

// loadWide creates table wide(a, b, c) with n deterministic rows through
// sess, in multi-row INSERTs.
func loadWide(t testing.TB, sess *ClientSession, n int) {
	t.Helper()
	ctx := context.Background()
	if _, err := sess.Exec(ctx, "CREATE TABLE wide (a, b, c)"); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO wide VALUES ")
		for i := lo; i < lo+500 && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d.25, 'nation-%02d')", i, 100+i, i%25)
		}
		if _, err := sess.Exec(ctx, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// drain consumes a result stream and returns its row count.
func drain(t testing.TB, rows *ClientRows, err error) int64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return rows.RowCount()
}

// TestFlushRule pins the rule itself, with the clock held still: the first
// row flushes at once, later rows only as flush units fill — 2 000 rows of
// the benchmark's 93 bytes are 6 row flushes, 8 with the head and the
// terminal chunk, where there used to be 2 002 — and a row that arrives
// late flushes however little is buffered.
func TestFlushRule(t *testing.T) {
	flushes, buffered := 0, 0
	for n := int64(1); n <= 2000; n++ {
		buffered += 93
		if flushDue(n, buffered, 0) {
			flushes++
			buffered = 0
		}
	}
	if flushes != 6 {
		t.Errorf("2000 rows of 93 B flushed %d times, want 6", flushes)
	}
	if !flushDue(1, 10, 0) {
		t.Error("the first row must flush immediately")
	}
	if flushDue(2, 10, streamFlushInterval-1) || !flushDue(2, 10, streamFlushInterval) {
		t.Error("a later row must flush exactly when the interval has passed")
	}
	if flushDue(2, streamFlushBytes-1, 0) || !flushDue(2, streamFlushBytes, 0) {
		t.Error("a later row must flush exactly when a unit is buffered")
	}
}

// TestStreamFlushCounts drives real streams over HTTP and reads the flush
// counter: a one-row reply takes the three flushes it always took, and a
// 2 000-row reply takes a handful — at most one per flush unit of bytes and
// one per flush interval of wall time on top of head, first row and done,
// which on an unloaded machine is the 8 of TestFlushRule.
func TestStreamFlushCounts(t *testing.T) {
	addr, srv, _ := newTestServer(t, 1)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	loadWide(t, sess, 2000)

	before := srv.met.streamFlushes.Load()
	rows, err := sess.Query(ctx, "SELECT a FROM wide WHERE a = 7")
	if n := drain(t, rows, err); n != 1 {
		t.Fatalf("one-row query returned %d rows", n)
	}
	if got := srv.met.streamFlushes.Load() - before; got != 3 {
		t.Errorf("one-row reply took %d flushes, want 3 (head, row, done)", got)
	}

	for attempt := 0; attempt < 3; attempt++ {
		flushes0, bytes0 := srv.met.streamFlushes.Load(), srv.met.streamBytes.Load()
		start := time.Now()
		rows, err := sess.Query(ctx, "SELECT a, b * 1.08, c FROM wide")
		if n := drain(t, rows, err); n != 2000 {
			t.Fatalf("scan returned %d rows", n)
		}
		elapsed := time.Since(start)
		flushes, sent := srv.met.streamFlushes.Load()-flushes0, srv.met.streamBytes.Load()-bytes0
		bound := 3 + sent/streamFlushBytes + int64(elapsed/streamFlushInterval)
		if flushes > bound {
			t.Errorf("2000 rows (%d B, %v) took %d flushes, want at most %d", sent, elapsed, flushes, bound)
		}
		t.Logf("2000 rows, %d B, %v: %d flushes", sent, elapsed, flushes)
	}
}

// TestStreamSlowProducer is the other side of the rule: when every row
// costs the sampler far more than the flush interval, each row reaches the
// client as it is produced — the first while the statement is still
// running, none held back for the next — so Rows.Next latency is bounded by
// the producer, as it was with a flush per row.
func TestStreamSlowProducer(t *testing.T) {
	addr, srv, _ := newTestServer(t, 1)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, map[string]json.Number{"samples": "400000"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := sess.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	flushes0 := srv.met.streamFlushes.Load()
	start := time.Now()
	rows, err := sess.Query(ctx, "SELECT o.cust, conf() FROM orders o, shipping s WHERE o.shipto = s.dest AND o.price * s.duration > 300")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var arrived []time.Duration
	var running []bool
	for rows.Next() {
		arrived = append(arrived, time.Since(start))
		running = append(running, srv.met.queriesInflight.Load() == 1)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	total := time.Since(start)
	if len(arrived) != 3 {
		t.Fatalf("got %d rows, want 3", len(arrived))
	}
	t.Logf("rows at %v, done at %v", arrived, total)
	if gap := arrived[1] - arrived[0]; gap < 2*streamFlushInterval {
		t.Skipf("rows only %v apart: this fixture is not a slow producer on this machine", gap)
	}
	if !running[0] || !running[1] {
		t.Errorf("rows before the last arrived only after the statement finished: %v", running)
	}
	// Each row is its own flush: head, three rows, done.
	if got := srv.met.streamFlushes.Load() - flushes0; got != 5 {
		t.Errorf("slow 3-row statement took %d flushes, want 5", got)
	}
}

// brokenWriter is a client that goes away: after limit bytes every write
// fails (or, with failFlush, every flush does), while the request context
// stays live — the server must notice from the write itself.
type brokenWriter struct {
	header    http.Header
	body      bytes.Buffer
	limit     int
	failFlush bool
	deadline  time.Time
}

func (w *brokenWriter) Header() http.Header { return w.header }
func (w *brokenWriter) WriteHeader(int)     {}
func (w *brokenWriter) Write(p []byte) (int, error) {
	if !w.failFlush && w.body.Len()+len(p) > w.limit {
		return 0, errors.New("write: broken pipe")
	}
	return w.body.Write(p)
}
func (w *brokenWriter) FlushError() error {
	if w.failFlush && w.body.Len() > w.limit {
		return errors.New("flush: broken pipe")
	}
	return nil
}
func (w *brokenWriter) SetWriteDeadline(t time.Time) error { w.deadline = t; return nil }

// TestStreamDeadClient: a write or flush that fails ends the row loop at
// that flush — no further rows are pulled from the engine, no done chunk is
// written — and the statement is recorded as cancelled, not as a success.
func TestStreamDeadClient(t *testing.T) {
	addr, srv, _ := newTestServer(t, 1)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	loadWide(t, sess, 2000)
	body, _ := json.Marshal(QueryRequest{Session: sess.ID(), Query: "SELECT a, b, c FROM wide"})

	for _, failFlush := range []bool{false, true} {
		cancelled0, errors0, rows0 := srv.met.cancelledTotal.Load(), srv.met.errorsTotal.Load(), srv.met.rowsTotal.Load()
		w := &brokenWriter{header: http.Header{}, limit: 40 << 10, failFlush: failFlush}
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		srv.Handler().ServeHTTP(w, req)

		if got := srv.met.cancelledTotal.Load() - cancelled0; got != 1 {
			t.Errorf("failFlush=%v: cancelled counter moved by %d, want 1", failFlush, got)
		}
		if got := srv.met.errorsTotal.Load() - errors0; got != 0 {
			t.Errorf("failFlush=%v: error counter moved by %d, want 0", failFlush, got)
		}
		if streamed := srv.met.rowsTotal.Load() - rows0; streamed <= 0 || streamed >= 2000 {
			t.Errorf("failFlush=%v: %d rows encoded before the loop stopped, want some but not all 2000", failFlush, streamed)
		}
		if bytes.Contains(w.body.Bytes(), []byte(`"k":"done"`)) {
			t.Errorf("failFlush=%v: a done chunk was written to a dead client", failFlush)
		}
		if srv.met.queriesInflight.Load() != 0 {
			t.Errorf("failFlush=%v: statement still counted in flight", failFlush)
		}
	}
}

// TestStatusWriterUnwrap: the logging middleware's writer lets
// http.ResponseController through to the connection — write deadlines reach
// it, and a flush error comes back rather than vanishing in a Flusher
// assertion.
func TestStatusWriterUnwrap(t *testing.T) {
	under := &brokenWriter{header: http.Header{}, limit: 0, failFlush: true}
	sw := &statusWriter{ResponseWriter: under}
	rc := http.NewResponseController(sw)
	when := time.Unix(1700000000, 0)
	if err := rc.SetWriteDeadline(when); err != nil || !under.deadline.Equal(when) {
		t.Errorf("SetWriteDeadline through statusWriter: err %v, deadline %v", err, under.deadline)
	}
	if _, err := sw.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err == nil {
		t.Error("flush error did not surface through statusWriter")
	}
	if sw.bytes != 1 || sw.status != http.StatusOK {
		t.Errorf("statusWriter recorded status %d, %d bytes", sw.status, sw.bytes)
	}
}

// spaces is an endless run of spaces: a request body of any size that costs
// the test no memory.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestRequestBodyLimit: a body one byte over the limit is refused with 413,
// wire code bad_request, and decodes on the client to ErrBadRequest; a bulk
// INSERT of the benchmark's size through the real client is served.
func TestRequestBodyLimit(t *testing.T) {
	addr, srv, _ := newTestServer(t, 1)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "CREATE TABLE ev (id, a, b, c, d, e)"); err != nil {
		t.Fatal(err)
	}

	// The benchmark's shape: one 1 024-row INSERT, 6 144 arguments.
	var sb strings.Builder
	sb.WriteString("INSERT INTO ev VALUES ")
	args := make([]any, 0, 1024*6)
	for i := 0; i < 1024; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(?, ?, ?, ?, ?, ?)")
		args = append(args, int64(i), float64(i)*1.5, "FRANCE", 0.25, int64(7), 99.5)
	}
	if _, err := sess.Exec(ctx, sb.String(), args...); err != nil {
		t.Fatalf("bulk INSERT of %d arguments refused: %v", len(args), err)
	}

	// Padded with whitespace between the members so the body is exactly the
	// size wanted whatever the statement.
	post := func(size int64) *httptest.ResponseRecorder {
		head := fmt.Sprintf(`{"session":%q,`, sess.ID())
		tail := `"query":"SELECT id FROM ev WHERE id = 3"}`
		pad := size - int64(len(head)+len(tail))
		body := io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, pad), strings.NewReader(tail))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", body))
		return rec
	}
	if rec := post(1 << 20); rec.Code != http.StatusOK {
		t.Errorf("padded body under the limit: HTTP %d %s", rec.Code, rec.Body)
	}
	rec := post(maxRequestBody + 1)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one byte over the limit: HTTP %d, want 413", rec.Code)
	}
	var eb struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == nil {
		t.Fatalf("413 body %q: %v", rec.Body, err)
	}
	if eb.Error.Code != CodeBadRequest {
		t.Errorf("413 wire code %q, want %q", eb.Error.Code, CodeBadRequest)
	}
	if err := eb.Error.Err(); !errors.Is(err, ErrBadRequest) {
		t.Errorf("client-side error %v does not match ErrBadRequest", err)
	}
}

// TestStockJSONReadsTheStream is the schema half of the compatibility
// claim: every line pipd emits — heads, deterministic and symbolic rows,
// conditions, done, err — decodes with nothing but encoding/json and the
// documented tags into the documented chunk, with no field the schema does
// not name.
func TestStockJSONReadsTheStream(t *testing.T) {
	addr, _, ts := newTestServer(t, 42)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := sess.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{"CREATE TABLE empty (x)"}
	for _, c := range corpus {
		if c.args == nil {
			queries = append(queries, c.query)
		}
	}
	for _, q := range queries {
		body, _ := json.Marshal(QueryRequest{Session: sess.ID(), Query: q})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var stock []oracleChunk
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields()
			var o oracleChunk
			if err := dec.Decode(&o); err != nil {
				t.Fatalf("%q: stock decode of %s: %v", q, sc.Bytes(), err)
			}
			stock = append(stock, o)
		}
		resp.Body.Close()
		if len(stock) < 2 || stock[0].K != "head" || stock[len(stock)-1].K != "done" {
			t.Fatalf("%q: stream shape %+v", q, stock)
		}

		// The same statement through the codec's own client, reassembled
		// into chunks, must be what the stock decoder saw.
		rows, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		mine := []oracleChunk{{K: "head", Columns: rows.Columns()}}
		for rows.Next() {
			mine = append(mine, toOracle(Chunk{K: "row", Row: append([]Value(nil), rows.Row()...), Cond: rows.Cond()}))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		mine = append(mine, oracleChunk{K: "done", Rows: rows.RowCount()})
		rows.Close()
		if !reflect.DeepEqual(mine, stock) {
			t.Errorf("%q:\nclient %+v\nstock  %+v", q, mine, stock)
		}
	}

	// A failure after the head arrives as an err chunk a stock decoder
	// reads too; one before it as a plain JSON error body.
	resp, err := http.Post(ts.URL+"/v1/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"session":%q,"query":"SELECT nope FROM"}`, sess.ID())))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb struct {
		Error *oracleError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == nil || eb.Error.Code != CodeParse || eb.Error.Line != 1 {
		t.Errorf("parse failure body: %+v, %v", eb.Error, err)
	}
}

// TestClientReadsStockJSON is the other half: the client decodes a stream
// written by encoding/json alone — through the tagged twin, and
// through maps, whose keys come out in an order the codec never writes —
// including an err chunk with a parse position.
func TestClientReadsStockJSON(t *testing.T) {
	long := strings.Repeat("a long equation string ", 4000) // a line far longer than the read buffer
	rows := [][]oracleValue{
		{{T: "i", I: 7}, {T: "f", F: "270.54000000000002"}, {T: "s", S: "FRANCE"}},
		{{T: "i"}, {T: "f", F: "-Inf"}, {T: "s", S: "tab\t\"quote\" <&> 😀 \u2028"}},
		{{T: "null"}, {T: "b", B: true}, {T: "e", S: long}},
	}
	conds := []string{"", "(x1 > 95)", ""}
	handler := func(asMaps, fail bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			enc := json.NewEncoder(w)
			write := func(o oracleChunk) {
				if !asMaps {
					_ = enc.Encode(o)
					return
				}
				b, _ := json.Marshal(o)
				var m map[string]any
				_ = json.Unmarshal(b, &m)
				m["zz_future_field"] = []any{1.5, nil, map[string]any{"x": "y"}}
				_ = enc.Encode(m)
			}
			write(oracleChunk{K: "head", Columns: []string{"a", "b", "c"}})
			for i, row := range rows {
				write(oracleChunk{K: "row", Row: row, Cond: conds[i]})
			}
			if fail {
				write(oracleChunk{K: "err", Error: &oracleError{Code: CodeParse, Message: "unexpected token", Line: 2, Col: 5, SourceLine: "  FROM"}})
				return
			}
			write(oracleChunk{K: "done", Rows: int64(len(rows))})
		}
	}
	for _, mode := range []struct{ asMaps, fail bool }{{false, false}, {true, false}, {true, true}} {
		ts := httptest.NewServer(handler(mode.asMaps, mode.fail))
		got, err := NewClient(ts.URL).stream(context.Background(), QueryRequest{Session: "s", Query: "q"})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Columns(), []string{"a", "b", "c"}) {
			t.Errorf("columns %v", got.Columns())
		}
		for i := 0; got.Next(); i++ {
			want := make([]Value, len(rows[i]))
			for j, v := range rows[i] {
				want[j] = Value(v)
			}
			if !reflect.DeepEqual(got.Row(), want) || got.Cond() != conds[i] {
				t.Errorf("mode %+v row %d: %+v | %q", mode, i, got.Row(), got.Cond())
			}
			for j := range want {
				n, nerr := got.Native(j)
				wn, werr := want[j].Native()
				if nerr != nil || werr != nil || !sameNative(n, wn) {
					t.Errorf("mode %+v row %d cell %d: native %#v (%v), want %#v (%v)", mode, i, j, n, nerr, wn, werr)
				}
			}
		}
		if got.RowCount() != int64(len(rows)) {
			t.Errorf("mode %+v: %d rows", mode, got.RowCount())
		}
		var pe *pip.ParseError
		switch err := got.Err(); {
		case !mode.fail && err != nil:
			t.Errorf("mode %+v: %v", mode, err)
		case mode.fail && (!errors.As(err, &pe) || pe.Line != 2 || pe.Col != 5):
			t.Errorf("mode %+v: err chunk surfaced as %v", mode, err)
		}
		got.Close()
		ts.Close()
	}
}

// BenchmarkStreamRows is the server layer's own benchmark: 2 000
// deterministic three-cell rows from the engine through handleQuery, HTTP,
// and the client down to Go values, per operation — the path scan-stream
// exercises, without the benchmark harness around it.
func BenchmarkStreamRows(b *testing.B) {
	addr, srv, _ := newTestServer(b, 1)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	loadWide(b, sess, 2000)
	const q = "SELECT a, b * 1.08, c FROM wide WHERE a >= ?"
	flushes0 := srv.met.streamFlushes.Load()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	var rowsSeen int64
	for i := 0; i < b.N; i++ {
		rows, err := sess.Query(ctx, q, int64(0))
		if err != nil {
			b.Fatal(err)
		}
		for rows.Next() {
			for c := 0; c < 3; c++ {
				if _, err := rows.Native(c); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := rows.Err(); err != nil {
			b.Fatal(err)
		}
		rowsSeen += rows.RowCount()
		rows.Close()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if rowsSeen != int64(b.N)*2000 {
		b.Fatalf("%d rows over %d ops", rowsSeen, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rowsSeen), "ns/row")
	b.ReportMetric(float64(srv.met.streamFlushes.Load()-flushes0)/float64(b.N), "flushes/op")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(rowsSeen), "allocs/row")
}
