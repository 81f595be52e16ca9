package driver

import (
	"bufio"
	"context"
	"database/sql"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pip"
	"pip/internal/repl"
	"pip/internal/server"
	"pip/internal/wal"
)

func TestParseMultiHostDSN(t *testing.T) {
	hosts, settings, err := parseRemoteDSN("pip://p:7432,r1:7432,r2:7433?seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"p:7432", "r1:7432", "r2:7433"}; !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts = %v, want %v", hosts, want)
	}
	if string(settings["seed"]) != "7" {
		t.Fatalf("settings = %v, want seed=7", settings)
	}

	// A replica without a port after a ported primary is legal (this shape
	// is why the host list is not parsed by net/url).
	hosts, _, err = parseRemoteDSN("pip://p:7432,replica")
	if err != nil || len(hosts) != 2 || hosts[1] != "replica" {
		t.Fatalf("mixed-port host list: hosts %v, err %v", hosts, err)
	}

	if _, _, err := parseRemoteDSN("pip://"); err == nil {
		t.Fatal("empty host list accepted")
	}
	if _, _, err := parseRemoteDSN("pip://a,b/path"); err == nil {
		t.Fatal("path in a multi-host DSN accepted")
	}
	if _, _, err := parseRemoteDSN("pip://a,b?bogus=1"); err == nil {
		t.Fatal("unknown key accepted in a multi-host DSN")
	}
}

func TestIsSetStmt(t *testing.T) {
	for q, want := range map[string]bool{
		"SET max_samples = 1":      true,
		"  set seed = 9":           true,
		"SET\tepsilon = 0.1":       true,
		"SELECT 1":                 false,
		"SETTINGS":                 false,
		"INSERT INTO t VALUES (1)": false,
		"set":                      false,
	} {
		if got := isSetStmt(q); got != want {
			t.Fatalf("isSetStmt(%q) = %v, want %v", q, got, want)
		}
	}
}

// replTopology boots a real primary/replica pair over HTTP and returns
// their addresses, the follower (for catch-up waits), and the two query
// servers' metrics URLs.
func replTopology(t *testing.T, seed uint64) (primAddr, replAddr string, f *repl.Follower) {
	t.Helper()
	pdb := pip.Open(pip.Options{Seed: seed})
	store, _, err := wal.Open(t.TempDir(), pdb.Core(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	prim := repl.NewPrimary(store, seed)
	psrv := server.New(server.Config{DB: pdb, WAL: store, Repl: prim})
	pts := httptest.NewServer(psrv.Handler())
	t.Cleanup(func() { pts.Close(); psrv.Close() })

	rdb := pip.Open(pip.Options{Seed: seed})
	f = repl.NewFollower(rdb.Core(), repl.FollowerOptions{
		Primary:          pts.URL,
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
			t.Error("follower did not stop")
		}
	})
	rsrv := server.New(server.Config{DB: rdb, Follower: f})
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(func() { rts.Close(); rsrv.Close() })
	return pts.Listener.Addr().String(), rts.Listener.Addr().String(), f
}

// queriesTotal scrapes pip_queries_total from a server's /metrics.
func queriesTotal(t *testing.T, addr string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "pip_queries_total "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatal("pip_queries_total not found in exposition")
	return 0
}

// waitForSeq blocks until the replica applied through seq.
func waitForSeq(t *testing.T, f *repl.Follower, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.WaitForSeq(ctx, seq); err != nil {
		t.Fatalf("replica never reached seq %d: %v", seq, err)
	}
}

// TestMultiHostRouting drives a real replicated topology through a
// multi-host DSN: writes land on the primary, replicate, and reads are
// answered by the replica — proven by the replica's own query counter and
// by bit-identical results.
func TestMultiHostRouting(t *testing.T) {
	primAddr, replAddr, f := replTopology(t, 7)
	db, err := sql.Open("pip", "pip://"+primAddr+","+replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One connection keeps the primary/replica session pair stable across
	// statements, so counter accounting below is exact.
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE orders (cust, price)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10)), ('Ann', 55)`); err != nil {
		t.Fatal(err)
	}
	waitForSeq(t, f, 2)

	primBefore, replBefore := queriesTotal(t, primAddr), queriesTotal(t, replAddr)
	rows, err := db.Query(`SELECT cust, expectation(price) FROM orders ORDER BY cust`)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, rows)
	rows.Close()
	if len(got) != 2 {
		t.Fatalf("replica-served read returned %d rows, want 2", len(got))
	}
	if d := queriesTotal(t, replAddr) - replBefore; d < 1 {
		t.Fatalf("replica served %g queries during the read, want >= 1 (read not routed to replica)", d)
	}
	if d := queriesTotal(t, primAddr) - primBefore; d != 0 {
		t.Fatalf("primary served %g queries during the read, want 0 (read leaked to primary)", d)
	}

	// The replica's answer is the primary's answer, bit for bit.
	prows, err := db.Query(`SELECT expectation(price) FROM orders WHERE cust = 'Joe'`)
	if err != nil {
		t.Fatal(err)
	}
	replicaRows := scanAll(t, prows)
	prows.Close()
	pdbDirect, err := sql.Open("pip", "pip://"+primAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pdbDirect.Close()
	drows, err := pdbDirect.Query(`SELECT expectation(price) FROM orders WHERE cust = 'Joe'`)
	if err != nil {
		t.Fatal(err)
	}
	primaryRows := scanAll(t, drows)
	drows.Close()
	if !reflect.DeepEqual(replicaRows, primaryRows) {
		t.Fatalf("replica answer %v != primary answer %v", replicaRows, primaryRows)
	}
}

// TestMultiHostWriteThroughQueryFallsBack pins the misroute repair: a
// mutation issued through the Query path bounces off the replica's
// read-only guard and lands on the primary transparently.
func TestMultiHostWriteThroughQueryFallsBack(t *testing.T) {
	primAddr, replAddr, f := replTopology(t, 7)
	db, err := sql.Open("pip", "pip://"+primAddr+","+replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (v)`); err != nil {
		t.Fatal(err)
	}
	waitForSeq(t, f, 1)

	// database/sql's Query path; the statement mutates. The replica
	// rejects it with ErrReadOnly and the driver retries on the primary.
	rows, err := db.Query(`INSERT INTO t VALUES (42)`)
	if err != nil {
		t.Fatalf("mutation through Query on a replicated DSN: %v", err)
	}
	rows.Close()
	waitForSeq(t, f, 2)
	var v float64
	if err := db.QueryRow(`SELECT v FROM t`).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("fallback write read back %v, want 42", v)
	}
}

// TestMultiHostSetAppliesToBothSessions pins SET fan-out: session settings
// must be equal on the primary and replica halves of a connection, or the
// same logical query would sample differently depending on routing.
func TestMultiHostSetAppliesToBothSessions(t *testing.T) {
	primAddr, replAddr, f := replTopology(t, 7)
	db, err := sql.Open("pip", "pip://"+primAddr+","+replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(1)

	if _, err := db.Exec(`CREATE TABLE t (v)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (CREATE_VARIABLE('Normal', 10, 1))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SET samples = 64`); err != nil {
		t.Fatal(err)
	}
	waitForSeq(t, f, 2)

	// The replica-routed query must sample under the SET; with a fixed
	// sample count the replica's answer equals the primary's fixed-count
	// answer bit-for-bit, which only holds if the SET reached the replica
	// session too.
	rows, err := db.Query(`SELECT expectation(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	viaReplica := scanAll(t, rows)
	rows.Close()

	direct, err := sql.Open("pip", "pip://"+primAddr+"?samples=64")
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	drows, err := direct.Query(`SELECT expectation(v) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	viaPrimary := scanAll(t, drows)
	drows.Close()
	if !reflect.DeepEqual(viaReplica, viaPrimary) {
		t.Fatalf("SET did not reach the replica session: replica %v, primary-with-setting %v", viaReplica, viaPrimary)
	}
}

// TestSingleHostDSNStillPrimaryOnly guards the degenerate case: one host
// means one session, no read routing, exactly the old behavior.
func TestSingleHostDSNStillPrimaryOnly(t *testing.T) {
	addr := bootServer(t, 7)
	db, err := sql.Open("pip", "pip://"+addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (v)`); err != nil {
		t.Fatal(err)
	}
	var n float64
	if _, err := db.Exec(`INSERT INTO t VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT v FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("read back %v, want 3", n)
	}
}

// TestReplicaOnlyWriteSurfacesTypedError ensures that without a fallback
// target (replica listed as the only host) the typed error reaches the
// caller through database/sql.
func TestReplicaOnlyWriteSurfacesTypedError(t *testing.T) {
	_, replAddr, _ := replTopology(t, 7)
	db, err := sql.Open("pip", "pip://"+replAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, err = db.Exec(`CREATE TABLE t (v)`)
	if !errors.Is(err, pip.ErrReadOnly) {
		t.Fatalf("write to a replica-only DSN: got %v, want ErrReadOnly", err)
	}
}

// Keep math imported for the float-bit helpers shared with remote_test.
var _ = math.Float64bits
