package sql

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/expr"
	"pip/internal/sampler"
)

// Exec parses and executes one statement against the database, returning
// the result table (nil for DDL/DML statements).
func Exec(db *core.DB, src string) (*ctable.Table, error) {
	return ExecContext(context.Background(), db, src)
}

// ExecContext parses and executes one statement under a request context,
// binding args against its ? placeholders. Cancellation or deadline expiry
// aborts sampling promptly and returns ctx.Err() — never a partial result.
func ExecContext(ctx context.Context, db *core.DB, src string, args ...ctable.Value) (*ctable.Table, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.ExecContext(ctx, db, args...)
}

// QueryContext parses and executes one statement under a request context,
// returning a streaming cursor over the result rows (see
// Prepared.QueryContext for the streaming rules).
func QueryContext(ctx context.Context, db *core.DB, src string, args ...ctable.Value) (Cursor, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.QueryContext(ctx, db, args...)
}

// execStmtTraced executes a parsed statement under env, whose trace already
// carries the statement text and parse time. On cancellation the
// statement's side effects may be partially applied for DML, but a SELECT
// never returns a partial table: the result is ctx.Err().
func execStmtTraced(env execEnv, st Stmt, src string) (*ctable.Table, error) {
	db := env.db
	if err := env.ctxErr(); err != nil {
		return nil, err
	}
	var out *ctable.Table
	run := func() error {
		var rerr error
		out, rerr = execStmt(env, st)
		return rerr
	}
	// Catalog-mutating statements go through the commit hook so an attached
	// write-ahead log sees them (serialized, with their source text) before
	// they are acknowledged; everything else, and every statement when no
	// log is attached, executes directly.
	var err error
	if isMutation(st) {
		// On a read-only replica, catalog-mutating statements are rejected
		// before they reach the commit hook — except session-local SET
		// (which mutates no shared catalog state) and statements replayed
		// by the replication applier, which ARE the primary's log.
		if _, isSet := st.(*SetStmt); !isSet && !db.IsApplier() {
			if primary, ro := db.ReadOnlyPrimary(); ro {
				return nil, fmt.Errorf("%w: writes go to the primary at %s", core.ErrReadOnly, primary)
			}
		}
		err = db.Commit(src, env.args, run)
	} else {
		//pipvet:allow walcommit isMutation gates this path to non-mutating statements
		err = run()
	}
	if err != nil {
		return nil, err
	}
	// Final cancellation gate: a result assembled from computations that
	// raced a cancellation is discarded, upholding the no-partial-results
	// contract even if an inner path missed a check.
	if err := env.ctxErr(); err != nil {
		return nil, err
	}
	return out, nil
}

// isMutation reports whether a statement mutates durable catalog state —
// exactly the statement kinds the write-ahead log records.
func isMutation(st Stmt) bool {
	switch st.(type) {
	case *CreateTableStmt, *DropStmt, *InsertStmt, *SetStmt:
		return true
	}
	return false
}

// execStmt dispatches one statement under an execution environment.
func execStmt(env execEnv, st Stmt) (*ctable.Table, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		env.db.Register(ctable.New(s.Name, s.Columns...))
		return nil, nil
	case *DropStmt:
		env.db.Drop(s.Name)
		return nil, nil
	case *InsertStmt:
		return nil, execInsert(env, s)
	case *SelectStmt:
		return execSelect(env, s)
	case *ExplainStmt:
		return execExplain(env, s)
	case *SetStmt:
		return nil, execSet(env.db, s)
	case *ShowStmt:
		return execShow(env)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", st)
	}
}

// execSet applies a session setting (SET name = value) to the database's
// sampling configuration; names, types and bounds are the settings table of
// internal/sampler. The new configuration takes effect for statements
// executed after this one; in-flight queries finish under the old one.
func execSet(db *core.DB, st *SetStmt) error {
	if st.Name == "vectorize" {
		// vectorize chose between two relational engines until the
		// row-at-a-time one was deleted. SET is WAL-logged and shipped to
		// followers, so data directories and primary logs written before
		// then still carry it: the name stays valid, keeps its on/off
		// check, and does nothing.
		if v, _ := strconv.ParseFloat(st.Value, 64); v != 0 && v != 1 {
			return fmt.Errorf("sql: vectorize must be on or off")
		}
		return nil
	}
	// Validate against a scratch copy first so a bad value leaves the live
	// configuration untouched; the checks depend only on the statement, so
	// the second application inside UpdateConfig cannot fail.
	trial := db.Config()
	if err := sampler.ApplySetting(&trial, st.Name, st.Value); err != nil {
		return fmt.Errorf("sql: %w", err)
	}
	db.UpdateConfig(func(cfg *sampler.Config) { _ = sampler.ApplySetting(cfg, st.Name, st.Value) })
	return nil
}

// execInsert evaluates row expressions (including CREATE_VARIABLE calls,
// which allocate fresh random variables per occurrence, and bound
// placeholders) and appends tuples.
func execInsert(env execEnv, st *InsertStmt) error {
	tb, err := env.db.Table(st.Table)
	if err != nil {
		return err
	}
	for _, row := range st.Rows {
		if len(row) != len(tb.Schema) {
			return fmt.Errorf("sql: INSERT arity %d does not match %s arity %d",
				len(row), st.Table, len(tb.Schema))
		}
		vals := make([]ctable.Value, len(row))
		for i, n := range row {
			v, err := evalConstNode(env, n)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := env.db.AppendRow(tb, ctable.NewTuple(vals...)); err != nil {
			return err
		}
	}
	return nil
}

// evalConstNode evaluates a tuple-independent expression: literals, bound
// placeholders, arithmetic and CREATE_VARIABLE.
func evalConstNode(env execEnv, n Node) (ctable.Value, error) {
	switch t := n.(type) {
	case NumLit:
		return ctable.Float(float64(t)), nil
	case StrLit:
		return ctable.String_(string(t)), nil
	case Placeholder:
		return env.bindArg(t.Idx)
	case NegExpr:
		v, err := evalConstNode(env, t.X)
		if err != nil {
			return ctable.Value{}, err
		}
		e, ok := v.AsExpr()
		if !ok {
			return ctable.Value{}, fmt.Errorf("sql: cannot negate %s", v)
		}
		return ctable.Symbolic(expr.Negate(e)), nil
	case BinExpr:
		l, err := evalConstNode(env, t.Left)
		if err != nil {
			return ctable.Value{}, err
		}
		r, err := evalConstNode(env, t.Right)
		if err != nil {
			return ctable.Value{}, err
		}
		le, ok1 := l.AsExpr()
		re, ok2 := r.AsExpr()
		if !ok1 || !ok2 {
			return ctable.Value{}, fmt.Errorf("sql: non-numeric arithmetic operand")
		}
		switch t.Op {
		case '+':
			return ctable.Symbolic(expr.Add(le, re)), nil
		case '-':
			return ctable.Symbolic(expr.Sub(le, re)), nil
		case '*':
			return ctable.Symbolic(expr.Mul(le, re)), nil
		case '/':
			return ctable.Symbolic(expr.Div(le, re)), nil
		}
		return ctable.Value{}, fmt.Errorf("sql: unknown operator %c", t.Op)
	case FuncCall:
		if strings.EqualFold(t.Name, "create_variable") {
			if len(t.Args) < 1 {
				return ctable.Value{}, fmt.Errorf("sql: CREATE_VARIABLE needs a distribution name")
			}
			nameV, err := evalConstNode(env, t.Args[0])
			if err != nil {
				return ctable.Value{}, err
			}
			if nameV.Kind != ctable.KindString {
				return ctable.Value{}, fmt.Errorf("sql: CREATE_VARIABLE first argument must be a string, got %s", nameV.Kind)
			}
			params := make([]float64, 0, len(t.Args)-1)
			for _, a := range t.Args[1:] {
				v, err := evalConstNode(env, a)
				if err != nil {
					return ctable.Value{}, err
				}
				f, ok := v.AsFloat()
				if !ok {
					return ctable.Value{}, fmt.Errorf("sql: CREATE_VARIABLE parameters must be numeric constants")
				}
				params = append(params, f)
			}
			v, err := env.db.CreateVariable(nameV.S, params...)
			if err != nil {
				return ctable.Value{}, err
			}
			return ctable.Symbolic(expr.NewVar(v)), nil
		}
		return ctable.Value{}, fmt.Errorf("sql: unknown function %q in constant context", t.Name)
	case ColRef:
		return ctable.Value{}, fmt.Errorf("sql: column reference %s in constant context", t)
	default:
		return ctable.Value{}, fmt.Errorf("sql: unsupported expression %T", n)
	}
}

// resolver maps (qualified) column names to positions in a combined schema.
type resolver struct {
	cols []resolvedCol
}

type resolvedCol struct {
	table string // lowered alias
	name  string // lowered column name
	idx   int
}

func newResolver(tables []TableRef, schemas []ctable.Schema) *resolver {
	r := &resolver{}
	idx := 0
	for ti, ref := range tables {
		alias := ref.Alias
		if alias == "" {
			alias = ref.Name
		}
		for _, c := range schemas[ti] {
			r.cols = append(r.cols, resolvedCol{
				table: strings.ToLower(alias),
				name:  strings.ToLower(c.Name),
				idx:   idx,
			})
			idx++
		}
	}
	return r
}

func (r *resolver) resolve(ref ColRef) (int, error) {
	name := strings.ToLower(ref.Column)
	table := strings.ToLower(ref.Table)
	found := -1
	for _, c := range r.cols {
		if c.name != name {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %s", ref)
		}
		found = c.idx
	}
	if found < 0 {
		return 0, fmt.Errorf("%w %s", ErrUnknownColumn, ref)
	}
	return found, nil
}

// compileScalar lowers a scalar AST node to a c-table Scalar; bound
// placeholders compile to literals of their argument value.
func compileScalar(n Node, r *resolver, env execEnv) (ctable.Scalar, error) {
	switch t := n.(type) {
	case NumLit:
		return ctable.LitFloat(float64(t)), nil
	case StrLit:
		return ctable.LitString(string(t)), nil
	case Placeholder:
		v, err := env.bindArg(t.Idx)
		if err != nil {
			return nil, err
		}
		return ctable.Lit{V: v}, nil
	case ColRef:
		idx, err := r.resolve(t)
		if err != nil {
			return nil, err
		}
		return ctable.Col(idx), nil
	case NegExpr:
		x, err := compileScalar(t.X, r, env)
		if err != nil {
			return nil, err
		}
		return ctable.Arith{Op: expr.OpSub, Left: ctable.LitFloat(0), Right: x}, nil
	case BinExpr:
		l, err := compileScalar(t.Left, r, env)
		if err != nil {
			return nil, err
		}
		rr, err := compileScalar(t.Right, r, env)
		if err != nil {
			return nil, err
		}
		var op expr.Op
		switch t.Op {
		case '+':
			op = expr.OpAdd
		case '-':
			op = expr.OpSub
		case '*':
			op = expr.OpMul
		case '/':
			op = expr.OpDiv
		}
		return ctable.Arith{Op: op, Left: l, Right: rr}, nil
	case FuncCall:
		return nil, fmt.Errorf("sql: function %q not allowed inside scalar expressions", t.Name)
	default:
		return nil, fmt.Errorf("sql: unsupported scalar %T", n)
	}
}

func cmpOpFromString(op string) (cond.CmpOp, error) {
	switch op {
	case "=":
		return cond.EQ, nil
	case "<>":
		return cond.NEQ, nil
	case "<":
		return cond.LT, nil
	case "<=":
		return cond.LE, nil
	case ">":
		return cond.GT, nil
	case ">=":
		return cond.GE, nil
	default:
		return 0, fmt.Errorf("sql: unknown comparison %q", op)
	}
}

// selectHasAggregates reports whether any target is an aggregate call.
// conf() counts as an aggregate (meaning aconf) only under GROUP BY.
func selectHasAggregates(st *SelectStmt) bool {
	for _, tgt := range st.Targets {
		if fc, ok := tgt.Expr.(FuncCall); ok {
			if fc.IsAggregate() || (fc.IsConf() && len(st.GroupBy) > 0) {
				return true
			}
		}
	}
	return false
}

// execSelect plans and runs a SELECT through the two-stage planner: the
// AST lowers to the logical IR, the rewriter applies its rules (constant
// folding, predicate pushdown, hash-join extraction, projection pruning),
// and the physical operator pipeline is drained into the result c-table.
// QueryContext hands the same pipeline to callers as a streaming cursor
// without draining.
func execSelect(env execEnv, st *SelectStmt) (*ctable.Table, error) {
	plan, err := planSelect(env, st, false)
	if err != nil {
		return nil, err
	}
	return plan.drain()
}

func defaultName(n Node) string {
	switch t := n.(type) {
	case ColRef:
		return t.Column
	case FuncCall:
		return strings.ToLower(t.Name)
	default:
		return "expr"
	}
}
