package sql

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/sampler"
)

// vecSizesDB builds a table of exactly n rows (v = row index, tag = v mod 7)
// plus a small dimension table for joins.
func vecSizesDB(t *testing.T, n int) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 99
	cfg.FixedSamples = 64
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE t (v, tag)")
	for lo := 0; lo < n; lo += 256 {
		hi := lo + 256
		if hi > n {
			hi = n
		}
		rows := make([]string, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rows = append(rows, fmt.Sprintf("(%d, %d)", i, i%7))
		}
		mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(rows, ", "))
	}
	mustExec(t, db, "CREATE TABLE u (tag, lbl)")
	for i := 0; i < 7; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO u VALUES (%d, 'L%d')", i, i))
	}
	return db
}

// TestVecBatchBoundaries pushes tables of 0, 1, batch-1, batch and batch+1
// rows through every operator shape (scan, filter, project, hash-join build
// and probe sides, DISTINCT, ORDER BY, streaming LIMIT stopping mid-batch)
// and asserts byte-identical output against the reference evaluator and
// against the digests the row-at-a-time engine recorded.
func TestVecBatchBoundaries(t *testing.T) {
	queries := []string{
		"SELECT v FROM t",                                             // bare scan
		"SELECT v FROM t WHERE v >= 0",                                // filter keeping every row
		"SELECT v FROM t WHERE tag = 3",                               // sparse filter (~1/7 survive)
		"SELECT v FROM t WHERE v < 0",                                 // filter dropping every row
		"SELECT v * 2 AS d FROM t WHERE tag = 1",                      // project above filter
		"SELECT DISTINCT tag FROM t",                                  // distinct
		"SELECT v FROM t ORDER BY v DESC LIMIT 5",                     // sort + limit
		"SELECT v FROM t LIMIT 1000",                                  // limit mid-batch
		"SELECT v FROM t LIMIT 1024",                                  // limit at the batch boundary
		"SELECT v FROM t LIMIT 2000",                                  // limit beyond one batch
		"SELECT t.v, u.lbl FROM t, u WHERE t.tag = u.tag LIMIT 10",    // join probe under limit pressure
		"SELECT u.lbl, t.v FROM u, t WHERE u.tag = t.tag LIMIT 10",    // big table on the build side
		"SELECT expected_count(*) AS n FROM t, u WHERE t.tag = u.tag", // full join drain + aggregate
	}
	digests := make(map[string]string)
	for _, n := range []int{0, 1, vecBatchSize - 1, vecBatchSize, vecBatchSize + 1} {
		db := vecSizesDB(t, n)
		for _, q := range queries {
			got, err := ExecContext(context.Background(), db, q)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, q, err)
			}
			ref, err := naiveExec(context.Background(), db, q)
			if err != nil {
				t.Fatalf("n=%d %s (oracle): %v", n, q, err)
			}
			if got.String() != ref.String() {
				t.Fatalf("n=%d %s:\nengine:\n%s\nreference evaluator:\n%s", n, q, got, ref)
			}
			digests[fmt.Sprintf("n=%d: %s", n, q)] = fmt.Sprintf("%x", sha256.Sum256([]byte(got.String())))
		}
	}
	checkGolden(t, "testdata/batch_boundaries_golden.json", digests)
}

// TestFirstRowCostsOneRow pins the streaming cursor's demand-following
// chunk growth: after a single Next over a 2 000-row input, the sampling
// Project has evaluated conf() for exactly one row — a streaming client
// sees row one after one row's work, not after a full batch.
func TestFirstRowCostsOneRow(t *testing.T) {
	db := vecSizesDB(t, 2000)
	cur, err := QueryContext(context.Background(), db, "SELECT v, conf() FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatal(err)
	}
	node := toPlanNode(cur.(operator), true)
	if node.Op != "Project" || node.Rows != 1 {
		t.Fatalf("after one Next the %s has emitted rows=%d, want Project rows=1", node.Op, node.Rows)
	}
}

// TestVecLimitStopsPulling asserts the need-driven chunk protocol: under
// LIMIT k the scan must report exactly k emitted rows (not a full batch).
func TestVecLimitStopsPulling(t *testing.T) {
	db := vecSizesDB(t, vecBatchSize+1)
	node, err := Explain(db, "EXPLAIN ANALYZE SELECT v FROM t LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	scan := node
	for len(scan.Children) > 0 {
		scan = scan.Children[0]
	}
	if scan.Op != "Scan" || scan.Rows != 3 {
		t.Fatalf("scan under LIMIT 3 emitted rows=%d (op %s), want 3", scan.Rows, scan.Op)
	}
}

// TestVecCancellationBetweenBatches cancels the request context while a
// streaming cursor holds a partially consumed batch: the rows already
// produced keep flowing, and the cancellation surfaces at the next batch
// boundary instead of hanging or truncating silently.
func TestVecCancellationBetweenBatches(t *testing.T) {
	db := vecSizesDB(t, 3*vecBatchSize)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := QueryContext(ctx, db, "SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := cur.Next(); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	rows := 1
	for {
		_, err := cur.Next()
		if err == nil {
			rows++
			if rows > 3*vecBatchSize {
				t.Fatal("cursor delivered more rows than the table holds after cancellation")
			}
			continue
		}
		if err == io.EOF || !errors.Is(err, context.Canceled) {
			t.Fatalf("cursor ended with %v, want context.Canceled", err)
		}
		break
	}
	if rows > vecBatchSize {
		t.Fatalf("cancellation crossed a batch boundary: %d rows delivered, want <= %d", rows, vecBatchSize)
	}
}
