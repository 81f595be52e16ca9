package pip_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"pip"
	"pip/internal/sampler"
)

// buildConcurrencyDB seeds a handle with a probabilistic table large enough
// that aggregate queries overlap in time.
func buildConcurrencyDB(t *testing.T, workers int) *pip.DB {
	t.Helper()
	db := pip.Open(pip.Options{Seed: 77, FixedSamples: 200, Workers: workers})
	// Normal prices under one-sided cuts have closed-form answers; these
	// tests exercise the parallel sampler.
	db.Core().UpdateConfig(func(cfg *sampler.Config) { cfg.DisableClosedForm = true })
	db.MustExec(`CREATE TABLE orders (cust, price)`)
	for i := 0; i < 30; i++ {
		db.MustExec(fmt.Sprintf(
			`INSERT INTO orders VALUES (%d, CREATE_VARIABLE('Normal', %d, 10))`, i, 80+i))
	}
	return db
}

// TestConcurrentQueries hammers one DB handle from many goroutines — the
// race-detector guarantee behind serving parallel sessions: queries share
// the catalog and an immutable sampler, so no locks are needed on the read
// path and every goroutine must see the same answer.
func TestConcurrentQueries(t *testing.T) {
	db := buildConcurrencyDB(t, 8)
	want := db.MustQuery(`SELECT expected_sum(price) FROM orders WHERE price > 85`)
	wantVal, ok := want.Tuples[0].Values[0].AsFloat()
	if !ok {
		t.Fatal("non-numeric aggregate result")
	}

	const goroutines = 8
	const iterations = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iterations)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				res, err := db.Query(`SELECT expected_sum(price) FROM orders WHERE price > 85`)
				if err != nil {
					errs <- err
					return
				}
				got, _ := res.Tuples[0].Values[0].AsFloat()
				if math.Float64bits(got) != math.Float64bits(wantVal) {
					errs <- fmt.Errorf("concurrent query returned %v, want %v", got, wantVal)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentQueriesWithSet mixes SET statements into concurrent query
// traffic: configuration swaps must be atomic (queries finish under the
// sampler they started with, never a torn config).
func TestConcurrentQueriesWithSet(t *testing.T) {
	db := buildConcurrencyDB(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := db.Query(`SELECT conf() FROM orders WHERE price > 95`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, stmt := range []string{`SET workers = 2`, `SET workers = 8`, `SET samples = 100`, `SET workers = 1`} {
			if err := db.Exec(stmt); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWorkersOptionBitIdentity checks the contract end to end through the
// public API: two handles differing only in Workers return bit-identical
// query results.
func TestWorkersOptionBitIdentity(t *testing.T) {
	q := `SELECT expected_sum(price), expected_count(*) FROM orders WHERE price > 85`
	seq := buildConcurrencyDB(t, 1).MustQuery(q)
	par := buildConcurrencyDB(t, 8).MustQuery(q)
	for c := range seq.Tuples[0].Values {
		a, _ := seq.Tuples[0].Values[c].AsFloat()
		b, _ := par.Tuples[0].Values[c].AsFloat()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("column %d: workers=8 gave %v, workers=1 gave %v", c, b, a)
		}
	}
}
