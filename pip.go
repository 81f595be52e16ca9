// Package pip is a probabilistic database engine with native support for
// continuous (and discrete) probability distributions, reproducing the PIP
// system of Kennedy & Koch, "PIP: A Database System for Great and Small
// Expectations" (ICDE 2010).
//
// PIP represents uncertain values symbolically: random variables are opaque
// terms manipulated by ordinary relational operators, query results are
// conditional tables (c-tables) whose rows carry boolean conditions over
// those variables, and all sampling / numerical integration is deferred to
// dedicated expectation operators that run once the full expression to be
// measured is known. Deferral enables goal-directed strategies — exact CDF
// integration, inverse-CDF constrained sampling, independence partitioning,
// Metropolis fallback — that a sample-first engine cannot apply, because it
// commits to samples before seeing the query.
//
// # Quick start
//
//	db := pip.Open(pip.Options{Seed: 1})
//	db.MustExec(`CREATE TABLE orders (cust, price)`)
//	db.MustExec(`INSERT INTO orders VALUES ('Joe', CREATE_VARIABLE('Normal', 100, 10))`)
//	res := db.MustQuery(`SELECT expected_sum(price) FROM orders WHERE price > 95`)
//	fmt.Println(res)
//
// The same machinery is available programmatically: create variables with
// DB.NormalVar and friends, build c-tables with NewTable/Insert, compose
// relational operators from the ctable package via the re-exported helpers,
// and evaluate with DB.ExpectedSum, DB.Conf, DB.Histogram.
//
// # Architecture
//
//	internal/prng, internal/dist    — seeded PRNG and distribution classes
//	internal/expr, internal/cond    — the equation datatype and c-table conditions
//	internal/ctable                 — c-tables and relational algebra (paper Fig. 1)
//	internal/sampler                — Algorithm 4.3, aggregate operators, and the
//	                                  deterministic parallel world-evaluation engine
//	                                  (bit-identical results at any Options.Workers;
//	                                  see docs/ARCHITECTURE.md)
//	internal/core                   — catalog, variables, views, equality indexes
//	internal/sql                    — the SQL subset and its two-stage query
//	                                  planner: logical plan IR + rewrite rules
//	                                  (constant folding, predicate pushdown, equality
//	                                  lookup, hash-join extraction, projection
//	                                  pruning) lowered onto streaming Cursor
//	                                  operators; EXPLAIN [ANALYZE] exposes the plan
//	internal/wal                    — durability: write-ahead statement log +
//	                                  catalog snapshots with crash recovery; pipd
//	                                  -data-dir wires it into the core
//	                                  statement-commit hook (acknowledged ⇒ durable;
//	                                  replaying the same seed and log rebuilds the
//	                                  catalog bit for bit)
//	internal/obs                    — telemetry primitives (counters, histograms,
//	                                  phase timers) behind SHOW STATS and /metrics;
//	                                  see docs/OBSERVABILITY.md
//	internal/samplefirst            — the MCDB-style baseline used in benchmarks
//	internal/iceberg, internal/tpch — the paper's evaluation datasets (§VI)
//	internal/bench                  — experiment harnesses over both engines
package pip

import (
	"context"
	"fmt"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/sampler"
	"pip/internal/sql"
)

// Options configures a database instance.
type Options struct {
	// Seed parameterizes all pseudorandom draws; equal seeds give
	// bit-identical results. The zero seed is replaced by a fixed default.
	Seed uint64
	// Epsilon and Delta set the (epsilon, delta) guarantee of adaptive
	// sampling: with confidence 1-Epsilon, relative error below Delta.
	// Zero values take the defaults (0.05, 0.05).
	Epsilon float64
	Delta   float64
	// FixedSamples, when positive, disables adaptive stopping and uses
	// exactly this many samples per expectation.
	FixedSamples int
	// MaxSamples caps adaptive sampling (default 10000).
	MaxSamples int
	// Workers sets the goroutine pool used to evaluate sample worlds in
	// parallel. Zero uses one worker per CPU (runtime.GOMAXPROCS); one
	// forces sequential evaluation. Results are bit-identical for every
	// value: equal seed + any worker count => identical output. Also
	// settable per session with `SET workers = N`.
	Workers int
}

// DB is a PIP database handle.
type DB struct {
	core *core.DB
}

// Open creates a database.
func Open(opts Options) *DB {
	cfg := sampler.DefaultConfig()
	if opts.Seed != 0 {
		cfg.WorldSeed = opts.Seed
	}
	if opts.Epsilon > 0 {
		cfg.Epsilon = opts.Epsilon
	}
	if opts.Delta > 0 {
		cfg.Delta = opts.Delta
	}
	if opts.FixedSamples > 0 {
		cfg.FixedSamples = opts.FixedSamples
	}
	if opts.MaxSamples > 0 {
		cfg.MaxSamples = opts.MaxSamples
	}
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	return &DB{core: core.NewDB(cfg)}
}

// Core exposes the underlying engine for advanced use (benchmark harnesses,
// custom operators).
func (db *DB) Core() *core.DB { return db.core }

// Session returns a handle sharing this database's tables and random-
// variable namespace but carrying its own sampling configuration: SET
// statements executed through the session change only that session, while
// DDL/DML remain shared and visible to every handle. Sessions are how the
// network server (internal/server, cmd/pipd) gives each remote client
// private settings over one shared database.
func (db *DB) Session() *DB { return &DB{core: db.core.Session()} }

// ---------------------------------------------------------------------------
// SQL interface
//
// The canonical query surface is driver-grade: Prepare once / bind many
// (? placeholders), QueryContext/ExecContext for cancellation, and Rows for
// streaming typed row consumption — see query.go and rows.go, and the
// pip/driver package for the database/sql embedding. The one-shot helpers
// below remain as thin wrappers.

// Exec runs a statement with optionally bound ? placeholder arguments,
// discarding any result table. Thin wrapper over ExecContext.
func (db *DB) Exec(query string, args ...any) error {
	return db.ExecContext(context.Background(), query, args...)
}

// MustExec is Exec panicking on error; for straight-line example code.
func (db *DB) MustExec(query string, args ...any) {
	if err := db.Exec(query, args...); err != nil {
		panic(err)
	}
}

// Query runs a statement with optionally bound ? placeholder arguments and
// returns the materialized result c-table (nil for DDL/DML). For streaming
// row consumption use QueryRows/QueryContext instead.
func (db *DB) Query(query string, args ...any) (*Table, error) {
	vals, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return sql.ExecContext(context.Background(), db.core, query, vals...)
}

// MustQuery is Query panicking on error.
func (db *DB) MustQuery(query string, args ...any) *Table {
	out, err := db.Query(query, args...)
	if err != nil {
		panic(err)
	}
	return out
}

// ---------------------------------------------------------------------------
// Programmatic interface

// Table is a probabilistic c-table (re-exported from internal/ctable).
type Table = ctable.Table

// Tuple is one c-table row.
type Tuple = ctable.Tuple

// Value is one c-table cell.
type Value = ctable.Value

// Variable is a random variable.
type Variable = expr.Variable

// Expr is a random-variable equation.
type Expr = expr.Expr

// Condition is a c-table row condition in DNF — a disjunction of
// conjunctive clauses over random-variable atoms (exposed by Rows.Cond).
type Condition = cond.Condition

// PlanNode is one operator of a compiled query plan, as returned by
// DB.Explain; its String method renders the indented operator tree.
type PlanNode = sql.PlanNode

// Result reports an expectation/confidence computation.
type Result = sampler.Result

// Float wraps a constant number as a cell value.
func Float(f float64) Value { return ctable.Float(f) }

// Int wraps a constant integer.
func Int(i int64) Value { return ctable.Int(i) }

// Str wraps a constant string.
func Str(s string) Value { return ctable.String_(s) }

// VarValue wraps a random variable as a symbolic cell value.
func VarValue(v *Variable) Value { return ctable.Symbolic(expr.NewVar(v)) }

// ExprValue wraps an equation as a symbolic cell value.
func ExprValue(e Expr) Value { return ctable.Symbolic(e) }

// V wraps a variable as an equation term.
func V(v *Variable) Expr { return expr.NewVar(v) }

// C wraps a constant as an equation term.
func C(f float64) Expr { return expr.Const(f) }

// Add, Sub, Mul, Div build equations with constant folding.
func Add(l, r Expr) Expr { return expr.Add(l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return expr.Sub(l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return expr.Mul(l, r) }

// Div returns l / r.
func Div(l, r Expr) Expr { return expr.Div(l, r) }

// CreateVariable allocates a random variable from a registered distribution
// class ("Normal", "Uniform", "Exponential", "Poisson", "Gamma", "Beta",
// "Lognormal", "Bernoulli", "DiscreteUniform", ...).
func (db *DB) CreateVariable(distName string, params ...float64) (*Variable, error) {
	return db.core.CreateVariable(distName, params...)
}

// NormalVar allocates X ~ Normal(mu, sigma).
func (db *DB) NormalVar(mu, sigma float64) *Variable {
	return db.mustVar("Normal", mu, sigma)
}

// UniformVar allocates X ~ Uniform(a, b).
func (db *DB) UniformVar(a, b float64) *Variable {
	return db.mustVar("Uniform", a, b)
}

// ExponentialVar allocates X ~ Exponential(rate).
func (db *DB) ExponentialVar(rate float64) *Variable {
	return db.mustVar("Exponential", rate)
}

// PoissonVar allocates X ~ Poisson(lambda).
func (db *DB) PoissonVar(lambda float64) *Variable {
	return db.mustVar("Poisson", lambda)
}

func (db *DB) mustVar(name string, params ...float64) *Variable {
	v, err := db.core.CreateVariable(name, params...)
	if err != nil {
		panic(fmt.Sprintf("pip: %v", err))
	}
	return v
}

// NewTable creates and registers an empty table.
func (db *DB) NewTable(name string, cols ...string) *Table {
	tb := ctable.New(name, cols...)
	db.core.Register(tb)
	return tb
}

// Insert appends a row of values to a table.
func (db *DB) Insert(tb *Table, vals ...Value) error {
	return tb.Append(ctable.NewTuple(vals...))
}

// Materialize stores a query result as a named view; the symbolic
// representation is lossless so later expectations are unbiased.
func (db *DB) Materialize(name string, tb *Table) *Table {
	return db.core.Materialize(name, tb)
}

// Table fetches a registered table by name.
func (db *DB) Table(name string) (*Table, error) { return db.core.Table(name) }

// ---------------------------------------------------------------------------
// Expectation operators

// Expectation computes E[e | where] and P[where] for an equation under a
// conjunction of atoms built with GT/GE/LT/LE/EQ helpers.
func (db *DB) Expectation(e Expr, where ...cond.Atom) Result {
	return db.core.Sampler().Expectation(e, cond.Clause(where), true)
}

// Conf computes the probability that all given atoms hold.
func (db *DB) Conf(where ...cond.Atom) Result {
	return db.core.Sampler().Conf(cond.Clause(where))
}

// Variance computes Var[e | where] along with the conditional mean and
// standard deviation.
func (db *DB) Variance(e Expr, where ...cond.Atom) sampler.VarianceResult {
	return db.core.Sampler().Variance(e, cond.Clause(where))
}

// Moment computes the k-th raw conditional moment E[e^k | where].
func (db *DB) Moment(e Expr, k int, where ...cond.Atom) sampler.MomentResult {
	return db.core.Sampler().Moment(e, cond.Clause(where), k)
}

// ExpectedSum computes E[sum(col)] over a c-table.
func (db *DB) ExpectedSum(tb *Table, col int) (float64, error) {
	r, err := db.core.Sampler().ExpectedSum(tb, col)
	return r.Value, err
}

// ExpectedMax computes E[max(col)] with the early-terminating algorithm.
func (db *DB) ExpectedMax(tb *Table, col int, precision float64) (float64, error) {
	r, err := db.core.Sampler().ExpectedMax(tb, col, precision)
	return r.Value, err
}

// Histogram draws n per-world samples of sum(col) for visualization
// (expected_sum_hist).
func (db *DB) Histogram(tb *Table, col int, n int) ([]float64, error) {
	return db.core.Sampler().AggregateHistogram(tb, col, sampler.SumFold, n)
}

// Atom comparison helpers for the programmatic interface.

// GT builds the atom l > r.
func GT(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.GT, r) }

// GE builds the atom l >= r.
func GE(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.GE, r) }

// LT builds the atom l < r.
func LT(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.LT, r) }

// LE builds the atom l <= r.
func LE(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.LE, r) }

// EQ builds the atom l = r.
func EQ(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.EQ, r) }

// NEQ builds the atom l <> r.
func NEQ(l, r Expr) cond.Atom { return cond.NewAtom(l, cond.NEQ, r) }

// Distributions lists the registered distribution class names.
func Distributions() []string { return dist.Names() }
