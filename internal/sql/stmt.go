package sql

import (
	"context"
	"fmt"
	"time"

	"pip/internal/core"
	"pip/internal/ctable"
)

// Prepared is a prepared statement: the statement is lexed and parsed once,
// the resulting AST (the planner's input) is cached, and each execution
// binds a fresh argument vector against the ? placeholders — the
// prepare-once / bind-many idiom of database drivers. A Prepared is
// immutable after Prepare and safe for concurrent execution.
type Prepared struct {
	src      string
	st       Stmt
	numInput int
	// parseTime is the lex+parse wall time, replayed into each execution's
	// trace as its "parse" phase (the statement parses once, so every
	// execution shares the cost it actually paid).
	parseTime time.Duration
}

// Prepare parses one statement for later execution. Syntax errors are
// *ParseError values wrapping ErrParse.
func Prepare(src string) (*Prepared, error) {
	//pipvet:allow detsource parse-time telemetry, never feeds sampled state
	start := time.Now()
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return &Prepared{src: src, st: st, numInput: NumParams(st), parseTime: time.Since(start)}, nil //pipvet:allow detsource parse-time telemetry, never feeds sampled state
}

// NumInput returns the number of ? placeholders the statement binds.
func (p *Prepared) NumInput() int { return p.numInput }

// checkArity validates the bound argument count against the placeholder
// count, wrapping ErrBind on mismatch.
func (p *Prepared) checkArity(args []ctable.Value) error {
	if len(args) != p.numInput {
		return fmt.Errorf("%w: statement has %d placeholder(s), got %d argument(s)",
			ErrBind, p.numInput, len(args))
	}
	return nil
}

// newEnv starts one execution of the statement: a fresh environment whose
// trace carries the statement text and its parse time.
func (p *Prepared) newEnv(ctx context.Context, db *core.DB, args []ctable.Value) execEnv {
	env := newExecEnv(ctx, db, args)
	env.qs.Query = p.src
	env.qs.AddPhase("parse", p.parseTime)
	return env
}

// Exec executes the statement with bound arguments, returning the
// materialized result table (nil for DDL/DML).
func (p *Prepared) Exec(db *core.DB, args ...ctable.Value) (*ctable.Table, error) {
	return p.ExecContext(context.Background(), db, args...)
}

// ExecContext is Exec under a request context: cancellation or deadline
// expiry aborts sampling promptly and returns ctx.Err(), never a partial
// result.
func (p *Prepared) ExecContext(ctx context.Context, db *core.DB, args ...ctable.Value) (*ctable.Table, error) {
	if err := p.checkArity(args); err != nil {
		return nil, err
	}
	return execStmtTraced(p.newEnv(ctx, db, args), p.st, p.src)
}

// QueryContext executes the statement with bound arguments under a request
// context, returning a cursor over the result rows. Every SELECT streams
// through the planned operator pipeline: rows are joined, filtered and
// projected on demand as the cursor advances, and blocking operators
// (aggregates, DISTINCT, ORDER BY) materialize their own input internally
// on the first Next call. Other statements execute eagerly and the cursor
// iterates the materialized result.
func (p *Prepared) QueryContext(ctx context.Context, db *core.DB, args ...ctable.Value) (Cursor, error) {
	if err := p.checkArity(args); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	env := p.newEnv(ctx, db, args)
	if sel, ok := p.st.(*SelectStmt); ok {
		plan, err := planSelect(env, sel, false)
		if err != nil {
			return nil, err
		}
		return plan.root, nil
	}
	tb, err := execStmtTraced(env, p.st, p.src)
	if err != nil {
		return nil, err
	}
	return tableCursor(tb, env.qs), nil
}
