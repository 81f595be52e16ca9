package sql

import (
	"math"
	"testing"
)

func TestPerRowVarianceAndStddev(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (CREATE_VARIABLE('Normal', 10, 3))")
	out := mustExec(t, db, "SELECT variance(v) AS vv, stddev(v) AS sv FROM m")
	vv := cell(t, out, 0, 0)
	sv := cell(t, out, 0, 1)
	if math.Abs(vv-9) > 1e-9 || math.Abs(sv-3) > 1e-9 {
		t.Fatalf("variance %v stddev %v (closed form expected)", vv, sv)
	}
}

func TestPerRowVarianceConditional(t *testing.T) {
	// Var[U | U > 0.5] = (0.5)^2 / 12 for U ~ Uniform(0,1). Adding an
	// offset moves no draw, so every offset must give the off = 0 answers
	// to 1e-6: a one-pass sumSq/n − mean² cancels them away (0 at 1e8).
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE m (v)")
	mustExec(t, db, "INSERT INTO m VALUES (CREATE_VARIABLE('Uniform', 0, 1))")
	var base [2]float64
	for _, off := range []string{"0", "1e3", "1e6", "1e8", "1e9"} {
		out := mustExec(t, db, "SELECT variance(v + "+off+") AS vv, stddev(v + "+off+") AS sd FROM m WHERE v > 0.5")
		got := [2]float64{cell(t, out, 0, 0), cell(t, out, 0, 1)}
		if off == "0" {
			base = got
			if want := 0.25 / 12; math.Abs(got[0]-want) > 0.25*want {
				t.Fatalf("conditional variance %v, want %v", got[0], want)
			}
			continue
		}
		for i, name := range []string{"variance", "stddev"} {
			if math.Abs(got[i]-base[i]) > 1e-6*base[i] {
				t.Errorf("%s(v + %s) = %v, want %v (off = 0)", name, off, got[i], base[i])
			}
		}
	}
}

func TestExpectedStddevAggregate(t *testing.T) {
	// Deterministic rows 10 and 20: per-world stddev is always 5.
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (10), (20)")
	out := mustExec(t, db, "SELECT expected_stddev(v) AS s, expected_variance(v) AS vr FROM t")
	if got := cell(t, out, 0, 0); math.Abs(got-5) > 1e-9 {
		t.Fatalf("expected_stddev %v, want 5", got)
	}
	if got := cell(t, out, 0, 1); math.Abs(got-25) > 1e-9 {
		t.Fatalf("expected_variance %v, want 25", got)
	}
}

// TestExpectedVarianceOffsetCells: cells k + U, U ~ Uniform(1e9, 1e9 + 1)
// for k = 0, 1, 2 still sample, and their per-world variance must not
// cancel away against the 1e9 offset: E[S²] = Var{0, 1, 2} + (2/3)·(1/12).
func TestExpectedVarianceOffsetCells(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (CREATE_VARIABLE('Uniform', 1e9, 1e9 + 1)), (CREATE_VARIABLE('Uniform', 1e9 + 1, 1e9 + 2)), (CREATE_VARIABLE('Uniform', 1e9 + 2, 1e9 + 3))")
	out := mustExec(t, db, "SELECT expected_variance(v) AS vr FROM t")
	want := 2.0/3 + 2.0/3/12
	if got := cell(t, out, 0, 0); math.Abs(got-want) > 0.02 {
		t.Fatalf("expected_variance %v, want %v", got, want)
	}
}

func TestExpectedStddevGrouped(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (g, v)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 0), ('a', 10), ('b', 7)")
	out := mustExec(t, db, "SELECT g, expected_stddev(v) AS s FROM t GROUP BY g ORDER BY g")
	if got := cell(t, out, 0, 1); math.Abs(got-5) > 1e-9 {
		t.Fatalf("group a stddev %v", got)
	}
	// Single-row group has zero spread.
	if got := cell(t, out, 1, 1); got != 0 {
		t.Fatalf("group b stddev %v", got)
	}
}

func TestVarianceArityErrors(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE t (v)")
	mustExec(t, db, "INSERT INTO t VALUES (1)")
	for _, q := range []string{
		"SELECT variance() FROM t",
		"SELECT stddev(v, v) FROM t",
		"SELECT expected_stddev(v, v) FROM t",
	} {
		if _, err := Exec(db, q); err == nil {
			t.Fatalf("accepted %q", q)
		}
	}
}
