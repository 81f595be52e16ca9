package driver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pip"
	"pip/internal/server"
)

// bootServer starts a pipd-equivalent server over a fresh seeded database
// and returns its host:port.
func bootServer(t testing.TB, seed uint64) string {
	t.Helper()
	db := pip.Open(pip.Options{Seed: seed})
	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.Listener.Addr().String()
}

// scanAll drains a database/sql result into comparable rows; float64
// cells are rendered through their exact bit pattern so a one-ULP
// divergence fails the comparison.
func scanAll(t *testing.T, rows *sql.Rows) [][]string {
	t.Helper()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	for rows.Next() {
		dest := make([]any, len(cols))
		for i := range dest {
			dest[i] = new(any)
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		row := make([]string, len(cols))
		for i, d := range dest {
			switch v := (*d.(*any)).(type) {
			case float64:
				row[i] = fmt.Sprintf("f:%x", math.Float64bits(v))
			case nil:
				row[i] = "null"
			default:
				row[i] = fmt.Sprintf("%T:%v", v, v)
			}
		}
		out = append(out, row)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRemoteDriverBitIdentity executes the same seeded statements through
// an in-process DSN and a pip:// DSN and asserts database/sql delivers
// bit-identical values either way — the determinism contract at the
// outermost public surface.
func TestRemoteDriverBitIdentity(t *testing.T) {
	setup := []string{
		`CREATE TABLE orders (cust, shipto, price)`,
		`CREATE TABLE shipping (dest, duration)`,
		`INSERT INTO orders VALUES ('Joe', 'NY', CREATE_VARIABLE('Normal', 100, 10))`,
		`INSERT INTO orders VALUES ('Bob', 'LA', CREATE_VARIABLE('Normal', 80, 5))`,
		`INSERT INTO shipping VALUES ('NY', CREATE_VARIABLE('Normal', 5, 2))`,
		`INSERT INTO shipping VALUES ('LA', CREATE_VARIABLE('Normal', 4, 1))`,
	}
	queries := []string{
		`SELECT cust, price FROM orders WHERE price > 95`,
		`SELECT cust, expectation(price) e, conf() c FROM orders WHERE price > 90`,
		`SELECT expected_sum(o.price) FROM orders o, shipping s WHERE o.shipto = s.dest AND s.duration >= 7`,
		`SELECT shipto, expected_count() n FROM orders GROUP BY shipto`,
		`SELECT cust FROM orders ORDER BY cust LIMIT 1`,
	}

	local, err := sql.Open("pip", "seed=5")
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	addr := bootServer(t, 5)
	remote, err := sql.Open("pip", "pip://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	for _, db := range []*sql.DB{local, remote} {
		for _, s := range setup {
			if _, err := db.Exec(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range queries {
		lr, err := local.Query(q)
		if err != nil {
			t.Fatalf("local %q: %v", q, err)
		}
		want := scanAll(t, lr)
		lr.Close()
		rr, err := remote.Query(q)
		if err != nil {
			t.Fatalf("remote %q: %v", q, err)
		}
		got := scanAll(t, rr)
		rr.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\nlocal  %v\nremote %v", q, want, got)
		}
	}
}

// TestRemoteDriverPreparedAndErrors covers the prepared path, typed
// errors and transaction rejection over a pip:// DSN.
func TestRemoteDriverPreparedAndErrors(t *testing.T) {
	addr := bootServer(t, 9)
	db, err := sql.Open("pip", "pip://"+addr+"?samples=512")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`CREATE TABLE t (cust, v)`); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO t VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ins.Exec(fmt.Sprint("c", i), float64(i)*10); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()

	sel, err := db.Prepare(`SELECT cust FROM t WHERE v >= ? ORDER BY cust`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	var got []string
	rows, err := sel.Query(10.0)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
		var c string
		if err := rows.Scan(&c); err != nil {
			t.Fatal(err)
		}
		got = append(got, c)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if strings.Join(got, ",") != "c1,c2" {
		t.Fatalf("prepared remote query returned %v", got)
	}

	if _, err := db.Exec(`SELEC`); !errors.Is(err, pip.ErrParse) {
		t.Errorf("remote parse error = %v, want ErrParse", err)
	}
	if _, err := db.Query(`SELECT x FROM absent`); !errors.Is(err, pip.ErrUnknownTable) {
		t.Errorf("remote unknown table = %v, want ErrUnknownTable", err)
	}
	if _, err := db.Begin(); err == nil {
		t.Error("remote transactions accepted")
	}
}

// TestRemoteDriverCancellation: a context that expires mid-query surfaces
// as a context error through database/sql, and the connection remains
// usable afterwards.
func TestRemoteDriverCancellation(t *testing.T) {
	addr := bootServer(t, 3)
	db, err := sql.Open("pip", "pip://"+addr+"?samples=200000000")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // one session: the later SET must see the same one

	if _, err := db.Exec(`CREATE TABLE t (v)`); err != nil {
		t.Fatal(err)
	}
	// Uniform, not Normal: a Normal's truncated mean has a closed form and
	// would answer without the sampling the deadline has to interrupt.
	if _, err := db.Exec(`INSERT INTO t VALUES (CREATE_VARIABLE('Uniform', -1, 1))`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var out float64
	err = db.QueryRowContext(ctx, `SELECT expectation(v) FROM t WHERE v > 0`).Scan(&out)
	if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled remote query = %v, want a context error", err)
	}

	// The pool recovers: drop to a sane sample count and query again.
	if _, err := db.Exec(`SET samples = 512`); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT expectation(v) FROM t WHERE v > -100`).Scan(&out); err != nil {
		t.Fatal(err)
	}
	if math.Abs(out) > 1 {
		t.Fatalf("expectation after cancel = %v", out)
	}
}

// TestRemoteDriverSessionRecovery: when the server's idle sweep (or a
// restart) forgets a pooled connection's session, the driver maps the
// failure to driver.ErrBadConn so database/sql transparently retries on a
// fresh connection — the pool never stays poisoned.
func TestRemoteDriverSessionRecovery(t *testing.T) {
	base := pip.Open(pip.Options{Seed: 2})
	srv := server.New(server.Config{DB: base, SessionIdle: 50 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	db, err := sql.Open("pip", "pip://"+ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)
	db.SetConnMaxIdleTime(0) // keep the idle connection pooled forever

	if _, err := db.Exec(`CREATE TABLE t (x)`); err != nil {
		t.Fatal(err)
	}
	// Wait until the server has swept the session behind the pooled
	// connection, then use the pool again: the first attempt fails with
	// ErrBadConn internally and database/sql must recover on a fresh
	// session without surfacing an error.
	deadline := time.Now().Add(10 * time.Second)
	for srv := srv; ; {
		if n := srvSessionCount(srv); n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never swept the idle session")
		}
		time.Sleep(25 * time.Millisecond)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatalf("pool did not recover from a swept session: %v", err)
	}
}

// srvSessionCount peeks at the server's live session count.
func srvSessionCount(s *server.Server) int { return s.SessionCount() }

// TestRemoteDSNValidation pins the pip:// DSN grammar errors.
func TestRemoteDSNValidation(t *testing.T) {
	for _, dsn := range []string{
		"pip://",                        // no host
		"pip://host:1/extra",            // path
		"pip://host:1?bogus=1",          // unknown key
		"pip://host:1?name=x",           // in-process-only key
		"pip://host:1?seed=1;workers=2", // malformed query
		"pip://host:1?workers=abc",      // non-numeric value
		"pip://host:1?seed=",            // empty value
	} {
		if _, err := sql.Open("pip", dsn); err == nil {
			t.Errorf("DSN %q accepted", dsn)
		}
	}
}
