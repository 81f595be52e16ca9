package sql

import (
	"context"
	"math"
	"testing"
	"time"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/sampler"
)

// TestNaNComparisonDropsRow: every comparison with NaN is false except <>,
// so the filter drops a row whose condition compares its variables against
// NaN, given as a placeholder or as 0/0, and does so promptly rather than
// answering conf() 1 or NaN or rejection-sampling an expectation() for
// minutes. x <> NaN always holds.
func TestNaNComparisonDropsRow(t *testing.T) {
	cfg := sampler.DefaultConfig()
	cfg.RejectionCap = 1000 // a sampled NaN atom never holds: give up early
	db := core.NewDB(cfg)
	mustExec(t, db, "CREATE TABLE n (k, x, y)")
	mustExec(t, db, "INSERT INTO n VALUES (1, CREATE_VARIABLE('Normal', 10, 2), CREATE_VARIABLE('Normal', 8, 1.5))")
	nan := ctable.Float(math.NaN())
	run := func(q string, args ...ctable.Value) (*ctable.Table, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return ExecContext(ctx, db, q, args...)
	}
	for _, sel := range []string{"SELECT k, conf() FROM n WHERE ", "SELECT k, expectation(x) FROM n WHERE "} {
		for _, pred := range []string{"x > ", "x + y > ", "x * y > "} {
			for _, rhs := range []string{"?", "0/0"} {
				q := sel + pred + rhs
				var args []ctable.Value
				if rhs == "?" {
					args = []ctable.Value{nan}
				}
				out, err := run(q, args...)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					continue
				}
				if out.Len() != 0 {
					t.Errorf("%s: %d rows (first %v), want none", q, out.Len(), out.Tuples[0].Values)
				}
			}
		}
	}
	out, err := run("SELECT k, conf() FROM n WHERE x <> ?", nan)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || cell(t, out, 0, 1) != 1 {
		t.Fatalf("x <> NaN: %d rows, want one with conf 1", out.Len())
	}
}
