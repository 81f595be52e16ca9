package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pip"
	"pip/internal/ctable"
)

// demoStatements is the paper's running example, used as the shared
// fixture of the remote-vs-local corpus.
var demoStatements = []string{
	"CREATE TABLE orders (cust, shipto, price)",
	"CREATE TABLE shipping (dest, duration)",
	"INSERT INTO orders VALUES ('Joe', 'NY', CREATE_VARIABLE('Normal', 100, 10))",
	"INSERT INTO orders VALUES ('Bob', 'LA', CREATE_VARIABLE('Normal', 80, 5))",
	"INSERT INTO orders VALUES ('Ann', 'NY', CREATE_VARIABLE('Uniform', 50, 150))",
	"INSERT INTO shipping VALUES ('NY', CREATE_VARIABLE('Normal', 5, 2))",
	"INSERT INTO shipping VALUES ('LA', CREATE_VARIABLE('Normal', 4, 1))",
}

// corpus is the seeded query set asserted bit-identical across the wire.
// It covers streaming projections, per-row conf/expectation/variance,
// joins, aggregates with and without GROUP BY, DISTINCT, ORDER BY, LIMIT,
// EXPLAIN, and ? placeholders.
var corpus = []struct {
	query string
	args  []any
}{
	{"SELECT cust, price FROM orders WHERE price > 95", nil},
	{"SELECT cust, expectation(price) e, conf() c FROM orders WHERE price > 90", nil},
	{"SELECT cust, variance(price) v FROM orders", nil},
	{"SELECT expected_sum(o.price) FROM orders o, shipping s WHERE o.shipto = s.dest AND s.duration >= 7", nil},
	{"SELECT shipto, expected_count() n FROM orders GROUP BY shipto", nil},
	{"SELECT expected_avg(price) FROM orders", nil},
	{"SELECT expected_max(price) FROM orders", nil},
	{"SELECT DISTINCT shipto FROM orders ORDER BY shipto", nil},
	{"SELECT cust FROM orders ORDER BY cust DESC LIMIT 2", nil},
	{"SELECT cust FROM orders WHERE price > ?", []any{float64(90)}},
	{"EXPLAIN SELECT o.cust FROM orders o, shipping s WHERE o.shipto = s.dest", nil},
}

// newTestServer boots a server over a fresh seeded database behind
// httptest, returning its host:port address.
func newTestServer(t testing.TB, seed uint64) (addr string, srv *Server, ts *httptest.Server) {
	t.Helper()
	db := pip.Open(pip.Options{Seed: seed})
	srv = New(Config{DB: db})
	ts = httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.Listener.Addr().String(), srv, ts
}

// rowFingerprint renders a result stream (wire-encoded values + rendered
// conditions) into one comparable string.
func rowFingerprint(t *testing.T, cols []string, rows [][]Value, conds []string) string {
	t.Helper()
	b, err := json.Marshal(struct {
		Cols  []string
		Rows  [][]Value
		Conds []string
	}{cols, rows, conds})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// localFingerprint runs one corpus query in-process and fingerprints it
// through the same wire encoding the server uses.
func localFingerprint(t *testing.T, db *pip.DB, query string, args []any) string {
	t.Helper()
	rows, err := db.QueryContext(context.Background(), query, args...)
	if err != nil {
		t.Fatalf("local %q: %v", query, err)
	}
	defer rows.Close()
	var out [][]Value
	var conds []string
	for rows.Next() {
		vals := rows.Values()
		wire := make([]Value, len(vals))
		for i, v := range vals {
			wire[i] = EncodeValue(v)
		}
		out = append(out, wire)
		cond := ""
		if c := rows.Cond(); !c.IsTrue() {
			cond = c.String()
		}
		conds = append(conds, cond)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("local %q: %v", query, err)
	}
	return rowFingerprint(t, rows.Columns(), out, conds)
}

// remoteFingerprint runs one corpus query through a server session.
func remoteFingerprint(t *testing.T, sess *ClientSession, query string, args []any) string {
	t.Helper()
	rows, err := sess.Query(context.Background(), query, args...)
	if err != nil {
		t.Fatalf("remote %q: %v", query, err)
	}
	defer rows.Close()
	var out [][]Value
	var conds []string
	for rows.Next() {
		row := rows.Row()
		cp := make([]Value, len(row))
		copy(cp, row)
		out = append(out, cp)
		conds = append(conds, rows.Cond())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("remote %q: %v", query, err)
	}
	return rowFingerprint(t, rows.Columns(), out, conds)
}

// TestRemoteVsLocalBitIdentity is the determinism contract across the
// wire: the same seeded corpus, executed in-process and through a pipd
// server, produces bit-identical rows (floats compared through their
// exact round-trip wire encoding), identical conditions and columns.
func TestRemoteVsLocalBitIdentity(t *testing.T) {
	const seed = 42

	local := pip.Open(pip.Options{Seed: seed})
	for _, s := range demoStatements {
		if err := local.Exec(s); err != nil {
			t.Fatal(err)
		}
	}

	addr, _, _ := newTestServer(t, seed)
	client := NewClient(addr)
	sess, err := client.Session(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(context.Background())
	for _, s := range demoStatements {
		if _, err := sess.Exec(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range corpus {
		want := localFingerprint(t, local, q.query, q.args)
		got := remoteFingerprint(t, sess, q.query, q.args)
		if got != want {
			t.Errorf("%q:\nlocal  %s\nremote %s", q.query, want, got)
		}
	}
}

// TestPreparedStatementOverWire exercises the bind/execute path of a
// statement sent as text with arguments: rebinding works, Exec and Query
// agree on the row count, and a wrong arity surfaces as a bind error.
func TestPreparedStatementOverWire(t *testing.T) {
	addr, _, _ := newTestServer(t, 7)
	client := NewClient(addr)
	ctx := context.Background()
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := sess.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT cust FROM orders WHERE price > ?"
	for _, threshold := range []float64{60, 90} {
		rows, err := sess.Query(ctx, q, threshold)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		if n != 3 {
			t.Errorf("threshold %v: %d rows, want 3 (symbolic prices condition every row)", threshold, n)
		}
		if got, err := sess.Exec(ctx, q, threshold); err != nil || got != 3 {
			t.Errorf("threshold %v: Exec counted %d rows (%v), want 3", threshold, got, err)
		}
	}
	// Wrong arity surfaces as a bind error, through both calls.
	if _, err := sess.Query(ctx, q); !errors.Is(err, pip.ErrBind) {
		t.Errorf("arity error = %v, want ErrBind", err)
	}
	if _, err := sess.Exec(ctx, q, 90.0, 1.0); !errors.Is(err, pip.ErrBind) {
		t.Errorf("arity error = %v, want ErrBind", err)
	}
}

// TestStatementLifecycleStockHTTP drives the whole protocol with nothing
// but net/http and encoding/json — session, DDL, an INSERT with arguments,
// a streamed SELECT, session delete — and pins that the retired statement
// routes are gone: /v1/query is the only statement endpoint.
func TestStatementLifecycleStockHTTP(t *testing.T) {
	_, _, ts := newTestServer(t, 3)
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// lines posts one statement and returns its NDJSON reply, line by line.
	lines := func(session, body string) []map[string]any {
		t.Helper()
		resp := post("/v1/query", fmt.Sprintf(`{"session":%q,%s}`, session, body))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("%s: HTTP %d %s", body, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		var out []map[string]any
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var m map[string]any
			if err := dec.Decode(&m); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			out = append(out, m)
		}
		return out
	}

	resp := post("/v1/session", `{"settings":{"seed":3}}`)
	var sr struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || sr.ID == "" {
		t.Fatalf("session: %+v %v", sr, err)
	}
	resp.Body.Close()

	for _, body := range []string{
		`"query":"CREATE TABLE t (k, name)"`,
		`"query":"INSERT INTO t VALUES (?, ?)","args":[{"t":"i","i":7},{"t":"s","s":"seven"}]`,
	} {
		got := lines(sr.ID, body)
		if len(got) != 2 || got[0]["k"] != "head" || got[0]["columns"] != nil || got[1]["k"] != "done" || got[1]["rows"] != nil {
			t.Fatalf("%s: reply %v, want a bare head and done", body, got)
		}
	}
	got := lines(sr.ID, `"query":"SELECT k, name FROM t WHERE k = ?","args":[{"t":"i","i":7}]`)
	want := []map[string]any{
		{"k": "head", "columns": []any{"k", "name"}},
		{"k": "row", "row": []any{map[string]any{"t": "i", "i": 7.0}, map[string]any{"t": "s", "s": "seven"}}},
		{"k": "done", "rows": 1.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SELECT reply\n got %v\nwant %v", got, want)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("session delete: %v %v", resp, err)
	}
	resp.Body.Close()
	resp = post("/v1/query", fmt.Sprintf(`{"session":%q,"query":"SELECT k FROM t"}`, sr.ID))
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on a deleted session: HTTP %d, want 404", resp.StatusCode)
	}

	for _, path := range []string{"/v1/exec", "/v1/prepare", "/v1/stmt/close"} {
		resp := post(path, fmt.Sprintf(`{"session":%q,"query":"SELECT 1"}`, sr.ID))
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: HTTP %d, want 404 or 405", path, resp.StatusCode)
		}
	}
}

// TestQueryArgsFromForeignClient sends /v1/query arguments spelled as other
// JSON encoders spell them — reordered and upper-case keys, escaped
// letters, a bare null — which the decoder's scan refuses and encoding/json
// reads: each must bind the rows its canonical spelling binds. Arguments
// that are not wire values, or nest past encoding/json's depth limit, are a
// 400 bad_request that leaves the session usable.
func TestQueryArgsFromForeignClient(t *testing.T) {
	_, _, ts := newTestServer(t, 3)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || sr.ID == "" {
		t.Fatalf("session: %+v %v", sr, err)
	}
	resp.Body.Close()
	// run posts one statement and returns its reply, which must be a 200.
	run := func(query, args string) string {
		t.Helper()
		status, body := post(fmt.Sprintf(`{"session":%q,"query":%q,"args":[%s]}`, sr.ID, query, args))
		if status != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d %s", query, args, status, body)
		}
		return body
	}
	run("CREATE TABLE t (k, name)", "")
	run("INSERT INTO t VALUES (?, ?)", `{"t":"i","i":7},{"t":"s","s":"seven"}`)
	run("INSERT INTO t VALUES (?, ?)", `{"t":"i","i":8},{"t":"null"}`)
	run("INSERT INTO t VALUES (?, ?)", `{"t":"i","i":9},null`)

	for _, c := range []struct{ query, canonical, foreign string }{
		{"SELECT k, name FROM t WHERE k = ?", `{"t":"i","i":7}`, `{"i":7,"t":"i"}`},
		{"SELECT k, name FROM t WHERE k = ?", `{"t":"i","i":7}`, `{"I":7,"T":"i"}`},
		{"SELECT k, name FROM t WHERE k = ?", `{"t":"i","i":7}`, ` { "t" : "i" , "i" : 7 } `},
		{"SELECT k FROM t WHERE name = ?", `{"t":"s","s":"seven"}`, `{"t":"s","s":"\u0073even"}`},
		{"SELECT k FROM t WHERE name = ?", `{"t":"s","s":"seven"}`, `{"s":"seve\u006e","T":"s","x":[1,{}]}`},
		{"SELECT k, name FROM t WHERE k >= ?", `{"t":"i","i":8}`, `{"t":"f","f":"8","t":"i","i":8}`},
	} {
		want := run(c.query, c.canonical)
		if got := run(c.query, c.foreign); got != want {
			t.Errorf("%s with %s:\n got %s\nwant %s", c.query, c.foreign, got, want)
		}
		if !strings.Contains(want, `"k":"row"`) {
			t.Errorf("%s with %s bound no row: %s", c.query, c.canonical, want)
		}
	}
	// The bare null stored the NULL that {"t":"null"} stored.
	if got := run("SELECT name FROM t WHERE k >= ?", `{"t":"i","i":8}`); strings.Count(got, `{"k":"row","row":[{"t":"null"}]}`) != 2 {
		t.Errorf("NULL rows: %s", got)
	}

	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, arg := range []string{`{"t":"i","i":1.5}`, `{"t":5}`, `{"t":"i","i":"7"}`, `[{"t":"i"}]`, deep} {
		status, body := post(fmt.Sprintf(`{"session":%q,"query":"SELECT k FROM t WHERE k = ?","args":[%s]}`, sr.ID, arg))
		var eb struct {
			Error *Error `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &eb); err != nil || status != http.StatusBadRequest || eb.Error == nil || eb.Error.Code != CodeBadRequest {
			t.Errorf("argument %.40s: HTTP %d %.200s, want 400 %s", arg, status, body, CodeBadRequest)
		}
	}
	if got := run("SELECT k FROM t WHERE k = ?", `{"t":"i","i":7}`); !strings.Contains(got, `{"k":"done","rows":1}`) {
		t.Errorf("session after refused arguments: %s", got)
	}
}

// TestSessionSettingsIsolation proves SET is per-session: two sessions on
// one server diverge after one changes its seed, a third session inherits
// the server's base configuration untouched, and re-execution within a
// session is self-consistent.
func TestSessionSettingsIsolation(t *testing.T) {
	const seed = 42
	addr, _, _ := newTestServer(t, seed)
	client := NewClient(addr)
	ctx := context.Background()

	admin, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := admin.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}

	const q = "SELECT expected_sum(price) FROM orders WHERE price > 90"
	a, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := remoteFingerprint(t, a, q, nil)
	if got := remoteFingerprint(t, b, q, nil); got != base {
		t.Fatalf("equal-seed sessions disagree:\n%s\n%s", base, got)
	}
	// Session a reseeds itself; b and a fresh session are unaffected.
	if _, err := a.Exec(ctx, "SET seed = 7"); err != nil {
		t.Fatal(err)
	}
	reseeded := remoteFingerprint(t, a, q, nil)
	if reseeded == base {
		t.Fatal("SET seed = 7 did not change session a's results")
	}
	if got := remoteFingerprint(t, a, q, nil); got != reseeded {
		t.Fatal("session a is not self-consistent after SET")
	}
	if got := remoteFingerprint(t, b, q, nil); got != base {
		t.Fatal("SET in session a leaked into session b")
	}
	c, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := remoteFingerprint(t, c, q, nil); got != base {
		t.Fatal("SET in session a leaked into the server base configuration")
	}
	// Settings at session creation behave like an initial SET.
	d, err := client.Session(ctx, map[string]json.Number{"seed": "7"})
	if err != nil {
		t.Fatal(err)
	}
	if got := remoteFingerprint(t, d, q, nil); got != reseeded {
		t.Fatal("session created with seed=7 disagrees with SET seed = 7")
	}
}

// TestSeedZeroParity: seed=0 in session settings means "the engine's
// fixed default seed", exactly as pip.Options and in-process DSNs treat
// it — so seed=0 cannot produce different results local vs remote.
func TestSeedZeroParity(t *testing.T) {
	addr, _, _ := newTestServer(t, 0) // pip.Open{Seed: 0} = default seed
	client := NewClient(addr)
	ctx := context.Background()
	def, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := def.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	zero, err := client.Session(ctx, map[string]json.Number{"seed": "0"})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT expected_sum(price) FROM orders WHERE price > 90"
	if got, want := remoteFingerprint(t, zero, q, nil), remoteFingerprint(t, def, q, nil); got != want {
		t.Errorf("seed=0 session diverged from the default seed:\nwant %s\ngot  %s", want, got)
	}
}

// TestRemoteCancellation proves client-side context cancellation reaches
// the server's sampler: a query pinned to an enormous fixed sample count
// ends promptly with a context error instead of running to completion.
func TestRemoteCancellation(t *testing.T) {
	addr, srv, _ := newTestServer(t, 1)
	client := NewClient(addr)
	bg := context.Background()
	sess, err := client.Session(bg, map[string]json.Number{"samples": "200000000"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := sess.Exec(bg, s); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		rows, err := sess.Query(ctx, "SELECT expected_sum(price) FROM orders WHERE price > 90")
		if err != nil {
			done <- err
			return
		}
		defer rows.Close()
		for rows.Next() {
		}
		done <- rows.Err()
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query returned %v, want a context error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not reach the server-side sampler within 30s")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the sampler should abort at its next round barrier", elapsed)
	}
	// The server records the cancellation once its handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.cancelledTotal.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.met.cancelledTotal.Load() == 0 {
		t.Error("server metrics did not count the cancelled query")
	}
}

// TestSessionLifecycle covers explicit close, unknown-session errors, and
// the idle sweep.
func TestSessionLifecycle(t *testing.T) {
	db := pip.Open(pip.Options{Seed: 1})
	srv := New(Config{DB: db, SessionIdle: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := NewClient(ts.Listener.Addr().String())
	ctx := context.Background()

	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "CREATE TABLE t (x)"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "DROP TABLE t"); !errors.Is(err, ErrSessionUnknown) {
		t.Fatalf("closed session error = %v, want ErrSessionUnknown", err)
	}

	// An idle session is swept; the sweeper ticks at idle/4.
	sw, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := sw.Exec(ctx, "SELECT x FROM t"); errors.Is(err, ErrSessionUnknown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never swept")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestTypedErrorsOverWire proves the wire preserves the typed error
// surface: sentinels match with errors.Is and parse errors carry their
// position through errors.As.
func TestTypedErrorsOverWire(t *testing.T) {
	addr, _, _ := newTestServer(t, 1)
	client := NewClient(addr)
	ctx := context.Background()
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}

	_, err = sess.Query(ctx, "SELEC cust FROM orders")
	if !errors.Is(err, pip.ErrParse) {
		t.Fatalf("syntax error = %v, want ErrParse", err)
	}
	var pe *pip.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("syntax error %v does not carry a *ParseError", err)
	}
	if pe.Col != 1 || pe.SourceLine() == "" {
		t.Errorf("reconstructed position col=%d line=%q", pe.Col, pe.SourceLine())
	}

	// Multi-line statements keep their real line number across the wire.
	_, err = sess.Query(ctx, "SELECT cust\nFROM orders\nWHERE ???")
	var mpe *pip.ParseError
	if !errors.As(err, &mpe) {
		t.Fatalf("multi-line syntax error %v does not carry a *ParseError", err)
	}
	if mpe.Line != 3 || mpe.SourceLine() != "WHERE ???" {
		t.Errorf("multi-line position = line %d source %q, want line 3 %q", mpe.Line, mpe.SourceLine(), "WHERE ???")
	}

	if _, err := sess.Query(ctx, "SELECT x FROM nope"); !errors.Is(err, pip.ErrUnknownTable) {
		t.Errorf("unknown table error = %v, want ErrUnknownTable", err)
	}
	if _, err := sess.Exec(ctx, "CREATE TABLE t (x)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(ctx, "SELECT y FROM t"); !errors.Is(err, pip.ErrUnknownColumn) {
		t.Errorf("unknown column error = %v, want ErrUnknownColumn", err)
	}
	if _, err := sess.Query(ctx, "SELECT x FROM t WHERE x > ?"); !errors.Is(err, pip.ErrBind) {
		t.Errorf("unbound placeholder error = %v, want ErrBind", err)
	}
}

// TestWireValueRoundTrip proves every float64 bit pattern the engine can
// produce survives the wire encoding exactly — through Value's own JSON
// methods, and through the row path pipd and the client actually run
// (engine cell appended into a row line, line scanned in place, cell read
// back as a native) — and that the other kinds survive both alike.
func TestWireValueRoundTrip(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, math.Pi, 1e-323, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 2.225073858507201e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), 95.00000000000001, -123456789.987654321,
	}
	cells := []pip.Value{
		{}, pip.Int(0), pip.Int(math.MaxInt64), pip.Int(math.MinInt64), ctable.Bool(true), ctable.Bool(false),
		ctable.String_(""), ctable.String_("tab\t\"quote\" <&> caf\u00e9 \U0001F600 \u2028"),
	}
	for _, f := range floats {
		cells = append(cells, pip.Float(f))
	}
	var d decoder
	for _, cell := range cells {
		v := EncodeValue(cell)
		want, err := v.Native()
		if err != nil {
			t.Fatal(err)
		}
		if cell.Kind == ctable.KindFloat {
			want = cell.F
		}

		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back Value
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Errorf("%s unmarshalled to %+v, want %+v", b, back, v)
		}
		got, err := back.Native()
		if err != nil || !sameNative(got, want) {
			t.Errorf("%+v round-tripped through Value to %#v (%v), want %#v", cell, got, err, want)
		}

		line := appendChunk(nil, &Chunk{K: "row"}, []pip.Value{cell})
		if err := d.decode(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got, err = d.cells[0].native()
		if err != nil || !sameNative(got, want) {
			t.Errorf("%+v round-tripped through a row line to %#v (%v), want %#v", cell, got, err, want)
		}
	}
	// A float payload that is not a number is an error at the point of use,
	// on either path.
	if _, err := (Value{T: "f", F: "1.5x"}).Native(); err == nil {
		t.Error("malformed float accepted by Value.Native")
	}
	if err := d.decode([]byte(`{"k":"row","row":[{"t":"f","f":"1.5x"},{"t":"q"}]}`)); err != nil {
		t.Fatal(err)
	}
	for i := range d.cells {
		if _, err := d.cells[i].native(); err == nil {
			t.Errorf("cell %d: malformed payload accepted", i)
		}
	}
}

// TestOperationalEndpoints smoke-tests /healthz, /metrics and /v1/tables.
func TestOperationalEndpoints(t *testing.T) {
	addr, _, ts := newTestServer(t, 1)
	client := NewClient(addr)
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "CREATE TABLE t (a, b)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "INSERT INTO t VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	tables, err := client.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].Name != "t" || tables[0].Rows != 1 || len(tables[0].Columns) != 2 {
		t.Errorf("tables = %+v", tables)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"pip_queries_total", "pip_sessions_active", "pip_rows_streamed_total", "pip_uptime_seconds"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestConcurrentSessions hammers one server from many sessions at once —
// shared-catalog reads under per-session settings — and asserts every
// session sees the identical seeded answer (the determinism contract under
// concurrency). Run with -race in CI.
func TestConcurrentSessions(t *testing.T) {
	const seed = 11
	addr, _, _ := newTestServer(t, seed)
	client := NewClient(addr)
	ctx := context.Background()
	setup, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := setup.Exec(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT expected_sum(price) FROM orders WHERE price > 90"
	want := remoteFingerprint(t, setup, q, nil)

	const clients = 8
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			sess, err := client.Session(ctx, nil)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close(ctx)
			for j := 0; j < 5; j++ {
				rows, err := sess.Query(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				var out [][]Value
				var conds []string
				for rows.Next() {
					row := rows.Row()
					cp := make([]Value, len(row))
					copy(cp, row)
					out = append(out, cp)
					conds = append(conds, rows.Cond())
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				rows.Close()
				b, _ := json.Marshal(struct {
					Cols  []string
					Rows  [][]Value
					Conds []string
				}{rows.Columns(), out, conds})
				if string(b) != want {
					errs <- fmt.Errorf("concurrent session diverged:\nwant %s\ngot  %s", want, b)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentDML: concurrent sessions inserting into, scanning and
// listing one shared table must be race-free and lose no rows — DML and
// snapshots serialize through the catalog lock (run with -race in CI).
func TestConcurrentDML(t *testing.T) {
	addr, _, _ := newTestServer(t, 5)
	client := NewClient(addr)
	ctx := context.Background()
	setup, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec(ctx, "CREATE TABLE log (worker, i)"); err != nil {
		t.Fatal(err)
	}

	const workers, rows = 4, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			sess, err := client.Session(ctx, nil)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close(ctx)
			for i := 0; i < rows; i++ {
				if _, err := sess.Exec(ctx, "INSERT INTO log VALUES (?, ?)", float64(w), float64(i)); err != nil {
					errs <- err
					return
				}
				// Interleave reads: scans must see a consistent prefix.
				if _, err := sess.Exec(ctx, "SELECT worker FROM log"); err != nil {
					errs <- err
					return
				}
				if _, err := client.Tables(ctx); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	n, err := setup.Exec(ctx, "SELECT i FROM log")
	if err != nil {
		t.Fatal(err)
	}
	if n != workers*rows {
		t.Fatalf("lost rows under concurrent DML: %d, want %d", n, workers*rows)
	}
}

// BenchmarkServerParallelQueries measures end-to-end wire throughput of
// concurrent clients: each parallel worker owns one session and runs the
// paper's join-expectation query over HTTP, fixed at 256 samples so the
// measurement tracks the service path, not adaptive stopping noise.
func BenchmarkServerParallelQueries(b *testing.B) {
	db := pip.Open(pip.Options{Seed: 1, FixedSamples: 256})
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := NewClient(ts.Listener.Addr().String())
	ctx := context.Background()
	setup, err := client.Session(ctx, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range demoStatements {
		if _, err := setup.Exec(ctx, s); err != nil {
			b.Fatal(err)
		}
	}
	const q = "SELECT expected_sum(o.price) FROM orders o, shipping s WHERE o.shipto = s.dest AND s.duration >= 7"
	var rowsStreamed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess, err := client.Session(ctx, nil)
		if err != nil {
			b.Error(err)
			return
		}
		defer sess.Close(ctx)
		for pb.Next() {
			rows, err := sess.Query(ctx, q)
			if err != nil {
				b.Error(err)
				return
			}
			for rows.Next() {
				rowsStreamed.Add(1)
			}
			if err := rows.Err(); err != nil {
				b.Error(err)
				return
			}
			rows.Close()
		}
	})
	b.ReportMetric(float64(rowsStreamed.Load())/float64(b.N), "rows/query")
}
