package pip

import (
	"fmt"
	"io"
	"math"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/sql"
)

// Rows is a streaming iterator over query results, in the style of
// database/sql: Next advances, Scan copies the current row into typed
// destinations, Err reports the terminal error, Close releases the cursor.
// For aggregate-free SELECTs the underlying cursor joins, filters and
// projects one tuple per Next call — result rows are never materialized as
// a table. A Rows is single-consumer and not safe for concurrent use.
//
//	rows, err := db.QueryContext(ctx, `SELECT cust, price FROM orders WHERE price > ?`, 95)
//	defer rows.Close()
//	for rows.Next() {
//		var cust string
//		var price Expr
//		if err := rows.Scan(&cust, &price); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
type Rows struct {
	cur    sql.Cursor
	cols   []string
	t      *ctable.Tuple
	err    error
	closed bool
}

// newRows wraps an internal cursor.
func newRows(cur sql.Cursor) *Rows {
	return &Rows{cur: cur, cols: cur.Columns()}
}

// Columns returns the result column names (empty for statements producing
// no rows, e.g. DDL).
func (r *Rows) Columns() []string { return r.cols }

// Next advances to the next row, reporting false at the end of the result
// set or on error (distinguish with Err). The row data read by Scan, Values
// and Cond is valid until the following Next call.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	t, err := r.cur.Next()
	if err == io.EOF {
		r.t = nil
		return false
	}
	if err != nil {
		r.err = err
		r.t = nil
		return false
	}
	r.t = t
	return true
}

// Err returns the error that terminated iteration, if any. A cancelled
// request context surfaces here as ctx.Err().
func (r *Rows) Err() error { return r.err }

// Close releases the cursor; it is idempotent and safe to defer alongside
// explicit iteration to the end.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.t = nil
	return r.cur.Close()
}

// Samples returns the Monte Carlo samples this statement has drawn so far —
// its own, never another statement's.
func (r *Rows) Samples() int64 { return sql.Samples(r.cur) }

// Cond returns the current row's condition — the c-table clause under which
// the row exists. Deterministic rows report the always-true condition.
func (r *Rows) Cond() Condition {
	if r.t == nil {
		return cond.TrueCondition()
	}
	return r.t.Cond
}

// Values returns the current row's raw cells (valid until the next call to
// Next); nil when no row is positioned.
func (r *Rows) Values() []Value {
	if r.t == nil {
		return nil
	}
	return r.t.Values
}

// NumCells returns the current row's cell count, 0 when none is positioned.
func (r *Rows) NumCells() int { return len(r.Values()) }

// Native returns cell i of the current row as a value database/sql
// understands: float64, int64, string, bool, nil or, for a symbolic cell,
// its equation string (Scan into *Expr yields the equation itself). Remote
// rows (server.ClientRows) offer the same two methods and mapping, so
// pip/driver and pipql read either through one interface.
func (r *Rows) Native(i int) (any, error) {
	vals := r.Values()
	if i < 0 || i >= len(vals) {
		return nil, fmt.Errorf("pip: no cell %d in the current row", i)
	}
	if vals[i].Kind == ctable.KindExpr {
		return vals[i].E.String(), nil
	}
	return nativeValue(vals[i]), nil
}

// Scan copies the current row into dest, one destination per column, with
// typed conversion:
//
//	*float64  deterministic numerics (float, int, bool)
//	*int64    ints, and floats with an exact integer value
//	*string   strings
//	*bool     bools
//	*Expr     any numeric cell, symbolic or not (constants wrap as Const)
//	*Value    the raw cell, no conversion
//	*any      the cell's native Go value (float64, int64, string, bool,
//	          Expr, or nil)
//
// Scanning a symbolic cell into *float64 or *int64 is an error — a random
// variable has no single deterministic value; scan into *Expr and apply an
// expectation operator instead.
func (r *Rows) Scan(dest ...any) error {
	if r.t == nil {
		return fmt.Errorf("pip: Scan called without a row (call Next first)")
	}
	if len(dest) != len(r.t.Values) {
		return fmt.Errorf("pip: Scan got %d destinations for %d columns", len(dest), len(r.t.Values))
	}
	for i, d := range dest {
		if err := scanValue(r.t.Values[i], d); err != nil {
			return fmt.Errorf("pip: column %d (%s): %w", i, r.colName(i), err)
		}
	}
	return nil
}

func (r *Rows) colName(i int) string {
	if i < len(r.cols) {
		return r.cols[i]
	}
	return "?"
}

// scanValue converts one cell into one typed destination.
func scanValue(v Value, dest any) error {
	switch d := dest.(type) {
	case *float64:
		if v.IsSymbolic() {
			return fmt.Errorf("cannot scan symbolic value %s into *float64 (scan into *pip.Expr)", v)
		}
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("cannot scan %s value %s into *float64", v.Kind, v)
		}
		*d = f
		return nil
	case *int64:
		switch v.Kind {
		case ctable.KindInt:
			*d = v.I
			return nil
		case ctable.KindFloat:
			if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) {
				*d = int64(v.F)
				return nil
			}
			return fmt.Errorf("cannot scan non-integral float %s into *int64", v)
		case ctable.KindExpr:
			return fmt.Errorf("cannot scan symbolic value %s into *int64 (scan into *pip.Expr)", v)
		default:
			return fmt.Errorf("cannot scan %s value %s into *int64", v.Kind, v)
		}
	case *string:
		if v.Kind != ctable.KindString {
			return fmt.Errorf("cannot scan %s value %s into *string", v.Kind, v)
		}
		*d = v.S
		return nil
	case *bool:
		if v.Kind != ctable.KindBool {
			return fmt.Errorf("cannot scan %s value %s into *bool", v.Kind, v)
		}
		*d = v.B
		return nil
	case *Expr:
		e, ok := v.AsExpr()
		if !ok {
			return fmt.Errorf("cannot scan %s value %s into *pip.Expr", v.Kind, v)
		}
		*d = e
		return nil
	case *Value:
		*d = v
		return nil
	case *any:
		*d = nativeValue(v)
		return nil
	default:
		return fmt.Errorf("unsupported Scan destination type %T", dest)
	}
}

// nativeValue unwraps a cell into its natural Go representation.
func nativeValue(v Value) any {
	switch v.Kind {
	case ctable.KindFloat:
		return v.F
	case ctable.KindInt:
		return v.I
	case ctable.KindString:
		return v.S
	case ctable.KindBool:
		return v.B
	case ctable.KindExpr:
		return v.E
	default:
		return nil
	}
}
