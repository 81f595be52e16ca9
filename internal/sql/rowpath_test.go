package sql

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"strings"
	"sync"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
	"pip/internal/tpch"
)

// scanStreamDB loads the tables the scan-stream benchmark workload reads:
// the default TPC-H scale's 4 000 orders and 500 customers, customers with
// a Poisson-distributed order count as the benchmark defines it.
func scanStreamDB(t testing.TB) *core.DB {
	t.Helper()
	d := tpch.Generate(tpch.DefaultScale(), 1)
	db := core.NewDB(sampler.DefaultConfig())
	for _, q := range []string{
		"CREATE TABLE customers (cust, price, morders)",
		"CREATE TABLE orders (okey, cust, supp, price)",
	} {
		if _, err := Exec(db, q); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(table string, rows []string) {
		for lo := 0; lo < len(rows); lo += 500 {
			hi := min(lo+500, len(rows))
			if _, err := Exec(db, "INSERT INTO "+table+" VALUES "+strings.Join(rows[lo:hi], ", ")); err != nil {
				t.Fatal(err)
			}
		}
	}
	var rows []string
	for _, c := range d.Customers {
		rows = append(rows, fmt.Sprintf("(%d, %v, CREATE_VARIABLE('Poisson', %v))", c.CustKey, c.AvgOrderPrice, c.GrowthRate()*10))
	}
	insert("customers", rows)
	rows = rows[:0]
	for _, o := range d.Orders {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, %v)", o.OrderKey, o.CustKey, o.SuppKey, o.Price))
	}
	insert("orders", rows)
	return db
}

// TestRowPathAllocs holds the deterministic row path — scan, filter,
// arithmetic projection, hash join, the statement's execute clock and the
// row cursor — to amortised allocation: a whole streamed statement,
// planning included, may allocate at most 0.1 times per output row.
func TestRowPathAllocs(t *testing.T) {
	db := scanStreamDB(t)
	for _, q := range []string{
		"SELECT okey, price*1.08 FROM orders WHERE price > 250 AND okey > ?",
		"SELECT o.okey, c.price, o.price FROM orders o, customers c WHERE o.cust = c.cust AND o.okey > ?",
	} {
		p, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		arg := ctable.Int(0)
		run := func() int {
			cur, err := p.QueryContext(context.Background(), db, arg)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, err := cur.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			return n
		}
		rows := run()
		if rows < 2000 {
			t.Fatalf("%s: %d rows, want at least 2000", q, rows)
		}
		perRow := testing.AllocsPerRun(20, func() { run() }) / float64(rows)
		t.Logf("%s: %d rows, %.3f allocations per row", q, rows, perRow)
		if perRow > 0.1 {
			t.Errorf("%s: %.3f allocations per output row, want at most 0.1", q, perRow)
		}
	}
}

// hashRow adds one row's cells and condition to a stream digest.
func hashRow(h hash.Hash, row *ctable.Tuple) {
	for _, v := range row.Values {
		fmt.Fprintf(h, "%s|", v)
	}
	fmt.Fprintf(h, "%s\n", row.Cond)
}

// streamHash drains up to limit rows of cur (all of them when limit < 0)
// into a digest of their cells and conditions; a failed stream reads as
// its error, which matches no digest. It does not close the cursor.
func streamHash(cur Cursor, limit int) string {
	h := sha256.New()
	for n := 0; limit < 0 || n < limit; n++ {
		row, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "error: " + err.Error()
		}
		hashRow(h, row)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// recyclingQueries are the statements the batch-recycling tests stream:
// the scan-stream pair, the pair under a LIMIT that stops mid-batch, and a
// blocking operator above a pooled scan.
var recyclingQueries = []string{
	"SELECT okey, price*1.08 FROM orders WHERE price > 250 AND okey > ?",
	"SELECT o.okey, c.price, o.price FROM orders o, customers c WHERE o.cust = c.cust AND o.okey > ?",
	"SELECT okey, price*1.08 FROM orders WHERE price > 250 AND okey > ? LIMIT 1500",
	"SELECT o.okey, c.cust FROM orders o, customers c WHERE o.cust = c.cust AND o.okey > ? LIMIT 700",
	"SELECT cust, expected_sum(price) FROM orders WHERE okey > ? GROUP BY cust",
}

func openQuery(t testing.TB, db *core.DB, q string) Cursor {
	t.Helper()
	cur, err := QueryContext(context.Background(), db, q, ctable.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// serialHashes runs each recycling query alone, returning the digest of
// its first n rows for n = -1 (the whole result) and every n in stops,
// keyed "query#n".
func serialHashes(t testing.TB, db *core.DB, stops ...int) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, q := range recyclingQueries {
		for _, n := range append([]int{-1}, stops...) {
			cur := openQuery(t, db, q)
			out[fmt.Sprintf("%s#%d", q, n)] = streamHash(cur, n)
			cur.Close()
		}
	}
	return out
}

// TestBatchRecyclingInterleaved streams two statements side by side on one
// goroutine, a row of each in turn. The second is closed early: by its
// LIMIT, or by an explicit Close in mid-stream when it has no LIMIT, so its
// pooled batches go back while the first still runs. Every statement is
// then run once more on the recycled storage. Each stream must hash equal
// to the same statement run alone.
func TestBatchRecyclingInterleaved(t *testing.T) {
	db := scanStreamDB(t)
	const cut = 1100 // mid-stream, past the first full batch
	serial := serialHashes(t, db, cut)
	for _, qa := range recyclingQueries {
		for _, qb := range recyclingQueries {
			if qa == qb {
				continue
			}
			a, b := openQuery(t, db, qa), openQuery(t, db, qb)
			ha, hb := sha256.New(), sha256.New()
			aDone, bDone, nb := false, false, 0
			for !aDone || !bDone {
				if !aDone {
					row, err := a.Next()
					switch {
					case err == io.EOF:
						aDone = true
						a.Close()
					case err != nil:
						t.Fatal(err)
					default:
						hashRow(ha, row)
					}
				}
				if !bDone {
					row, err := b.Next()
					switch {
					case err == io.EOF:
						bDone, nb = true, -1
						b.Close()
					case err != nil:
						t.Fatal(err)
					default:
						hashRow(hb, row)
						if nb++; nb == cut && !strings.Contains(qb, "LIMIT") {
							bDone = true
							b.Close()
						}
					}
				}
			}
			if got, want := fmt.Sprintf("%x", ha.Sum(nil)), serial[qa+"#-1"]; got != want {
				t.Fatalf("%s beside %s: digest %s, alone %s", qa, qb, got, want)
			}
			if got, want := fmt.Sprintf("%x", hb.Sum(nil)), serial[fmt.Sprintf("%s#%d", qb, nb)]; got != want {
				t.Fatalf("%s beside %s (%d rows): digest %s, alone %s", qb, qa, nb, got, want)
			}
			for _, qc := range recyclingQueries {
				c := openQuery(t, db, qc)
				got := streamHash(c, -1)
				c.Close()
				if want := serial[qc+"#-1"]; got != want {
					t.Fatalf("%s after %s and %s: digest %s, alone %s", qc, qa, qb, got, want)
				}
			}
		}
	}
}

// TestNextAfterClose reads each recycling statement part way (or not at
// all) and closes it; another statement then takes the released batches.
// Every further Next must return io.EOF: never a panic, and never a row
// from storage the pool has handed on.
func TestNextAfterClose(t *testing.T) {
	db := scanStreamDB(t)
	for _, q := range recyclingQueries {
		for _, read := range []int{0, 1, 3, 1100} {
			cur := openQuery(t, db, q)
			streamHash(cur, read)
			if err := cur.Close(); err != nil {
				t.Fatal(err)
			}
			other := openQuery(t, db, q)
			streamHash(other, 10)
			for i := 0; i < 3; i++ {
				if row, err := cur.Next(); err != io.EOF || row != nil {
					t.Fatalf("%s: Next after Close (read %d) = %v, %v; want nil, io.EOF", q, read, row, err)
				}
			}
			other.Close()
			if err := cur.Close(); err != nil {
				t.Fatalf("%s: second Close: %v", q, err)
			}
		}
	}
}

// TestBatchRecyclingConcurrent runs 64 goroutines streaming the recycling
// statements at once, sharing the batch pool; each stream must hash equal
// to its serial run. Under -race it also checks that no batch is used by
// two statements at a time.
func TestBatchRecyclingConcurrent(t *testing.T) {
	db := scanStreamDB(t)
	serial := serialHashes(t, db)
	var wg sync.WaitGroup
	got := make([][2]string, 64)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range got[g] {
				q := recyclingQueries[(g+r)%len(recyclingQueries)]
				cur, err := QueryContext(context.Background(), db, q, ctable.Int(0))
				if err != nil {
					got[g][r] = err.Error()
					return
				}
				got[g][r] = streamHash(cur, -1)
				cur.Close()
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for r, h := range got[g] {
			q := recyclingQueries[(g+r)%len(recyclingQueries)]
			if want := serial[q+"#-1"]; h != want {
				t.Errorf("goroutine %d: %s: digest %s, alone %s", g, q, h, want)
			}
		}
	}
}
