package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"pip"
	"pip/internal/repl"
	"pip/internal/wal"
)

// replPair boots a primary server (durable, replication endpoints mounted
// on the query handler) and a replica server following it, both over real
// HTTP, and returns their addresses plus the live repl objects.
func replPair(t *testing.T, seed uint64) (primAddr, replAddr string, prim *repl.Primary, f *repl.Follower) {
	t.Helper()

	pdb := pip.Open(pip.Options{Seed: seed})
	store, _, err := wal.Open(t.TempDir(), pdb.Core(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	prim = repl.NewPrimary(store, seed)
	psrv := New(Config{DB: pdb, WAL: store, Repl: prim})
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
	rsrv := New(Config{DB: rdb, Follower: f})
	rts := httptest.NewServer(rsrv.Handler())
	t.Cleanup(func() { rts.Close(); rsrv.Close() })

	return pts.Listener.Addr().String(), rts.Listener.Addr().String(), prim, f
}

// queryOneFloat runs q in a fresh session against addr and returns the
// single float cell of the single result row.
func queryOneFloat(t *testing.T, addr, q string) float64 {
	t.Helper()
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	rows, err := sess.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("%s: no rows (err %v)", q, rows.Err())
	}
	n, err := rows.Row()[0].Native()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := n.(float64)
	if !ok {
		t.Fatalf("%s: cell is %T, want float64", q, n)
	}
	return f
}

// TestReplicationOverTheWire is the topology acceptance test at the server
// layer: writes land on the primary through the ordinary wire protocol,
// stream to the replica, and a remote query answered by the replica is
// bit-identical to the primary's answer; remote writes to the replica fail
// with the typed read-only error.
func TestReplicationOverTheWire(t *testing.T) {
	primAddr, replAddr, _, f := replPair(t, 7)
	ctx := context.Background()
	sess, err := NewClient(primAddr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	for _, q := range []string{
		"CREATE TABLE orders (cust, price)",
		"INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))",
		"INSERT INTO orders VALUES ('Ann', CREATE_VARIABLE('Normal', 80, 5)), ('Bob', 42.5)",
	} {
		if _, err := sess.Exec(ctx, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.WaitForSeq(wctx, 3); err != nil {
		t.Fatalf("replica never caught up: %v", err)
	}

	const agg = "SELECT expected_sum(price) AS r FROM orders"
	pv, rv := queryOneFloat(t, primAddr, agg), queryOneFloat(t, replAddr, agg)
	if math.Float64bits(pv) != math.Float64bits(rv) {
		t.Fatalf("replica answer %v != primary answer %v (bit-identity broken)", rv, pv)
	}

	// A remote write to the replica fails with the typed sentinel, carried
	// through the wire error codes.
	rsess, err := NewClient(replAddr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rsess.Close(ctx)
	if _, err := rsess.Exec(ctx, "INSERT INTO orders VALUES ('Mal', 1)"); !errors.Is(err, pip.ErrReadOnly) {
		t.Fatalf("remote replica write: got %v, want ErrReadOnly through the wire", err)
	}
	// SET stays allowed remotely: session settings are replica-local.
	if _, err := rsess.Exec(ctx, "SET max_samples = 512"); err != nil {
		t.Fatalf("SET on a replica session over the wire: %v", err)
	}
}

// TestReplMetricsExposition lints the pip_repl_* families on both sides of
// a live topology and pins the values an operator alerts on: replica lag
// zero after catch-up, fail-stop gauge zero, per-replica labelled series.
func TestReplMetricsExposition(t *testing.T) {
	primAddr, replAddr, prim, f := replPair(t, 7)
	ctx := context.Background()
	sess, err := NewClient(primAddr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	if _, err := sess.Exec(ctx, "CREATE TABLE t (v)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := f.WaitForSeq(wctx, 2); err != nil {
		t.Fatal(err)
	}
	// Wait for the ack to land so the primary's lag series reads zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := prim.Stats()
		if len(st.Replicas) == 1 && st.Replicas[0].LagRecords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lag never converged: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	pseries := lintExposition(t, scrapeMetrics(t, "http://"+primAddr))
	for _, family := range []string{
		"pip_repl_role_primary", "pip_repl_last_seq", "pip_repl_connected_replicas",
		"pip_repl_known_replicas", "pip_repl_records_shipped_total",
		"pip_repl_bytes_shipped_total", "pip_repl_snapshots_shipped_total",
		"pip_repl_streams_total",
	} {
		if _, ok := pseries[family]; !ok {
			t.Fatalf("primary exposition missing %s", family)
		}
	}
	if pseries["pip_repl_connected_replicas"] != 1 {
		t.Fatalf("pip_repl_connected_replicas = %g, want 1", pseries["pip_repl_connected_replicas"])
	}
	if pseries["pip_repl_records_shipped_total"] < 2 {
		t.Fatalf("pip_repl_records_shipped_total = %g, want >= 2", pseries["pip_repl_records_shipped_total"])
	}
	for _, s := range []string{
		fmt.Sprintf("pip_repl_replica_acked_seq{replica=%q}", "r1"),
		fmt.Sprintf("pip_repl_replica_lag_records{replica=%q}", "r1"),
	} {
		if _, ok := pseries[s]; !ok {
			t.Fatalf("primary exposition missing labelled series %s", s)
		}
	}
	if lag := pseries[fmt.Sprintf("pip_repl_replica_lag_records{replica=%q}", "r1")]; lag != 0 {
		t.Fatalf("replica lag series = %g after catch-up, want 0", lag)
	}

	rseries := lintExposition(t, scrapeMetrics(t, "http://"+replAddr))
	for _, family := range []string{
		"pip_repl_role_replica", "pip_repl_applied_seq", "pip_repl_primary_seq",
		"pip_repl_lag_records", "pip_repl_records_applied_total",
		"pip_repl_bytes_applied_total", "pip_repl_snapshot_loads_total",
		"pip_repl_reconnects_total", "pip_repl_connected", "pip_repl_fail_stopped",
	} {
		if _, ok := rseries[family]; !ok {
			t.Fatalf("replica exposition missing %s", family)
		}
	}
	if rseries["pip_repl_applied_seq"] != 2 {
		t.Fatalf("pip_repl_applied_seq = %g, want 2", rseries["pip_repl_applied_seq"])
	}
	if rseries["pip_repl_fail_stopped"] != 0 {
		t.Fatalf("pip_repl_fail_stopped = %g on a healthy replica", rseries["pip_repl_fail_stopped"])
	}
	if rseries["pip_repl_records_applied_total"] != 2 {
		t.Fatalf("pip_repl_records_applied_total = %g, want 2", rseries["pip_repl_records_applied_total"])
	}
}
