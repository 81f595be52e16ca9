package sql

import (
	"context"
	"fmt"
	"io"
	"time"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/obs"
	"pip/internal/sampler"
)

// Cursor is a pull-based iterator over query result rows — the streaming
// half of the query API. Every physical plan operator implements Cursor, so
// a SELECT's cursor is its planned pipeline: Next hands out rows from
// batches the pipeline computes on demand, asking for one row first and
// for more as the consumer keeps reading, so the work done before a row is
// returned follows what has been consumed. Blocking operators (Sort,
// Distinct, Aggregate) materialize their own input internally on first
// Next. A Cursor is single-consumer and not safe for concurrent use.
type Cursor interface {
	// Columns returns the result column names (empty for statements that
	// produce no rows, e.g. DDL).
	Columns() []string
	// Next returns the next result tuple, or (nil, io.EOF) after the last
	// row. The returned tuple is only valid until the following Next call.
	// A cancelled request context surfaces as ctx.Err().
	Next() (*ctable.Tuple, error)
	// Close releases the cursor. It is idempotent; Next after Close
	// returns io.EOF.
	Close() error
}

// execEnv carries per-execution state through planning and evaluation: the
// request context, the database, a context-scoped sampler, the bound
// placeholder arguments, the planner hints attached to the context, and the
// statement's telemetry trace.
type execEnv struct {
	ctx   context.Context
	db    *core.DB
	smp   *sampler.Sampler
	args  []ctable.Value
	hints Hints
	// qs traces this execution: phase spans plus a statement-scope sampler
	// counter set chained to the engine-wide one. The env's sampler records
	// into it, and per-operator scopes chain onto qs.Sampler in opScope.
	qs *obs.QueryStats
}

func newExecEnv(ctx context.Context, db *core.DB, args []ctable.Value) execEnv {
	if ctx == nil {
		ctx = context.Background()
	}
	smp := db.SamplerContext(ctx)
	// Chain the statement scope onto whatever collection point the sampler
	// already carries (the engine root by default), so engine-wide counters
	// keep aggregating while the trace isolates this statement's share.
	qs := obs.NewQueryStats("", smp.Config().Stats)
	return execEnv{ctx: ctx, db: db, smp: smp.WithStats(qs.Sampler), args: args, hints: HintsFrom(ctx), qs: qs}
}

// ctxErr reports the request context's cancellation state.
func (env *execEnv) ctxErr() error { return env.ctx.Err() }

// bindArg resolves placeholder i against the bound arguments, wrapping
// ErrBind when no argument vector was supplied.
func (env *execEnv) bindArg(i int) (ctable.Value, error) {
	if i < 0 || i >= len(env.args) {
		return ctable.Value{}, fmt.Errorf("%w: placeholder %d is unbound (prepare the statement and pass arguments)", ErrBind, i+1)
	}
	return env.args[i], nil
}

// spanCursor wraps the streaming SELECT cursor and reports the wall time
// the root operator's row facade spends pulling batches as the trace's
// "execute" phase — one clock read pair per batch, not per row. The phase
// is flushed exactly once — at EOF, on the first error, or at Close — so a
// partially drained stream still reports the time it actually spent.
type spanCursor struct {
	inner   operator
	qs      *obs.QueryStats
	elapsed time.Duration
	flushed bool
}

func newSpanCursor(inner operator, qs *obs.QueryStats) Cursor {
	if qs == nil {
		return inner
	}
	c := &spanCursor{inner: inner, qs: qs}
	inner.base().execute = &c.elapsed
	return c
}

// base exposes the wrapped root operator's metadata: the span wrapper is
// transparent to plan introspection — the cursor IS the planned pipeline,
// plus phase accounting.
func (c *spanCursor) base() *opBase { return c.inner.base() }

// Columns implements Cursor.
func (c *spanCursor) Columns() []string { return c.inner.Columns() }

// Next implements Cursor.
func (c *spanCursor) Next() (*ctable.Tuple, error) {
	t, err := c.inner.Next()
	if err != nil {
		c.flush()
	}
	return t, err
}

// Close implements Cursor.
func (c *spanCursor) Close() error {
	err := c.inner.Close()
	c.flush()
	return err
}

func (c *spanCursor) flush() {
	if c.flushed {
		return
	}
	c.flushed = true
	c.qs.AddPhase("execute", c.elapsed)
}

// ---------------------------------------------------------------------------
// Materialized cursors

// Samples returns the Monte Carlo samples drawn so far by the statement
// whose cursor this package returned: that statement's own share, however
// many others run concurrently. It is -1 for any other cursor.
func Samples(cur Cursor) int64 {
	var qs *obs.QueryStats
	switch c := cur.(type) {
	case *spanCursor:
		qs = c.qs
	case *TableCursor:
		qs = c.qs
	}
	if qs == nil {
		return -1
	}
	return qs.Sampler.Snapshot().Samples
}

// TableCursor iterates a materialized c-table — the cursor form of
// DDL/DML/EXPLAIN results. qs, when set, is the trace of the execution that
// produced the table.
type TableCursor struct {
	tb   *ctable.Table
	next int
	done bool
	qs   *obs.QueryStats
}

// NewTableCursor wraps a materialized table (nil yields an empty,
// zero-column cursor, the shape of a DDL/DML result).
func NewTableCursor(tb *ctable.Table) *TableCursor {
	return &TableCursor{tb: tb, done: tb == nil}
}

// Columns implements Cursor.
func (c *TableCursor) Columns() []string {
	if c.tb == nil {
		return nil
	}
	return c.tb.Schema.Names()
}

// Next implements Cursor.
func (c *TableCursor) Next() (*ctable.Tuple, error) {
	if c.done || c.next >= len(c.tb.Tuples) {
		c.done = true
		return nil, io.EOF
	}
	t := &c.tb.Tuples[c.next]
	c.next++
	return t, nil
}

// Close implements Cursor.
func (c *TableCursor) Close() error {
	c.done = true
	return nil
}
