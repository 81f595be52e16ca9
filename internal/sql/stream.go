package sql

import (
	"context"
	"fmt"

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

// Samples returns the Monte Carlo samples drawn so far by the statement
// whose cursor this package returned: that statement's own share, however
// many others run concurrently. It is -1 for any other cursor.
func Samples(cur Cursor) int64 {
	if op, ok := cur.(operator); ok && op.base().qs != nil {
		return op.base().qs.Sampler.Snapshot().Samples
	}
	return -1
}
