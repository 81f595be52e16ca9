// Package core is PIP's engine proper: it ties the symbolic c-table algebra
// (internal/ctable) and the deferred sampling/integration layer
// (internal/sampler) into a queryable probabilistic database (paper §III,
// Fig. 2: "Query Evaluation" over a "Data Store" of probabilistic c-tables).
//
// A DB owns the random-variable namespace (CREATE VARIABLE allocates unique
// identifiers, §V-A), a catalog of named c-tables (including materialized
// views of intermediate symbolic results — lossless, so later expectations
// are unbiased by materialization, §III-A), and a configured sampler.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
	"pip/internal/sampler"
)

// ErrUnknownTable is the sentinel wrapped by every table-lookup failure;
// match it with errors.Is. The wrapping error names the missing table.
var ErrUnknownTable = errors.New("core: unknown table")

// catalog is the state shared by a database and all of its session views:
// the table namespace, the rows of the tables in it and their equality
// indexes, and the random-variable allocator. One mutex guards them all,
// so concurrent sessions never race on DDL, DML (AppendRow, Snapshot,
// SnapshotEq) or CREATE_VARIABLE, and variable identifiers stay unique
// across every view of the database.
type catalog struct {
	mu          sync.Mutex
	nextVar     uint64
	nextSession uint64
	tables      map[string]*ctable.Table
	// eq holds the equality indexes of live tables, one slot per column,
	// built on first probe (SnapshotEq, eqindex.go). An entry lives exactly
	// as long as its table is in tables.
	eq map[*ctable.Table][]*eqIndex
	// stats is the engine-wide telemetry root: every session's sampler
	// counters roll up into it, and it holds the most recent query trace.
	// It has its own synchronization and is never touched under mu.
	stats obs.EngineStats
	// commitMu serializes catalog-mutating statements whenever mlog is
	// attached, so the log's record order equals the statements' effect
	// order (including random-variable allocation) and replay is exact.
	// Lock order: commitMu before mu; it is never taken under mu.
	commitMu sync.Mutex
	mlog     MutationLog
	// readOnly marks the catalog as a replica of primaryAddr: mutating SQL
	// statements from non-applier handles are rejected with ErrReadOnly
	// (see replication.go). Guarded by mu.
	readOnly    bool
	primaryAddr string
	// version counts catalog mutations applied in this process: one per
	// mutating statement (committed, recovered, or replicated) plus one per
	// snapshot loaded. It is exported only through CatalogVersion, so a
	// cache of per-catalog work (a plan cache, say) can tell when that work
	// went stale; it is never part of durable state.
	version atomic.Uint64
	// scopeMu guards scopes, the SHOW STATS contributions registered by
	// subsystems outside the engine (e.g. replication). It has no ordering
	// relationship with mu or commitMu: scope functions run outside it.
	scopeMu sync.Mutex
	scopes  map[string]func() map[string]float64
}

// DB is a PIP probabilistic database instance. Handles created by Session
// share one catalog (tables, variable namespace) but carry independent
// sampling configurations.
type DB struct {
	cat *catalog
	// sid identifies this handle in the write-ahead statement log
	// (RootSessionID for the NewDB handle); see durability.go.
	sid uint64
	// applier exempts this handle from the catalog's read-only gate so the
	// replication subsystem can replay the primary's log (replication.go).
	// Set once before the handle is shared; not inherited by Session.
	applier bool
	mu      sync.Mutex // guards smp and cfg
	smp     *sampler.Sampler
	cfg     sampler.Config
}

// NewDB creates a database with the given sampling configuration. Unless
// the configuration already carries a stats collection point, the engine's
// own telemetry root is installed, so every sampler the database hands out
// feeds the engine-wide counters surfaced by SHOW STATS.
func NewDB(cfg sampler.Config) *DB {
	cat := &catalog{nextVar: 1, nextSession: RootSessionID + 1, tables: map[string]*ctable.Table{}}
	if cfg.Stats == nil {
		cfg.Stats = &cat.stats.Sampler
	}
	return &DB{
		cat: cat,
		sid: RootSessionID,
		smp: sampler.New(cfg),
		cfg: cfg,
	}
}

// allocSessionID hands out the next session identifier for a new handle
// over this catalog.
func (cat *catalog) allocSessionID() uint64 {
	cat.mu.Lock()
	defer cat.mu.Unlock()
	id := cat.nextSession
	cat.nextSession++
	return id
}

// Session returns a handle sharing this database's catalog and random-
// variable namespace but carrying its own sampling configuration,
// initialized from the current one. Configuration updates on the session
// (SET statements, UpdateConfig) leave every other handle untouched, while
// DDL/DML and CREATE_VARIABLE act on the shared catalog and are visible to
// all. This is the isolation unit behind the network server's per-session
// settings.
func (db *DB) Session() *DB {
	cfg := db.Config()
	return &DB{cat: db.cat, sid: db.cat.allocSessionID(), smp: sampler.New(cfg), cfg: cfg}
}

// ReplaySession is Session for the replay of a logged session: the handle
// carries the logged id and world seed, allocates no id and is an applier
// (MarkApplier), so where replay leaves the session-id allocator depends on
// the log alone (EnsureSessionFloor), not on how many of its sessions first
// appear after the snapshot that recovery started from.
func (db *DB) ReplaySession(id, seed uint64) *DB {
	cfg := db.Config()
	cfg.WorldSeed = seed
	return &DB{cat: db.cat, sid: id, smp: sampler.New(cfg), cfg: cfg, applier: true}
}

// Sampler returns the database's sampler. The returned sampler is immutable
// (SET statements install a fresh one), so it may be used concurrently with
// configuration updates.
func (db *DB) Sampler() *sampler.Sampler {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.smp
}

// SamplerContext returns the database's sampler scoped to ctx: cancellation
// or deadline expiry aborts its sampling at the parallel engine's batch
// dispatch and round barriers, and aborted computations report ctx.Err()
// instead of partial estimates. This is the per-request hook behind
// QueryContext/ExecContext on the public surface.
func (db *DB) SamplerContext(ctx context.Context) *sampler.Sampler {
	return db.Sampler().WithContext(ctx)
}

// Config returns the sampling configuration.
func (db *DB) Config() sampler.Config {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.cfg
}

// UpdateConfig applies mutate to a copy of the current sampling
// configuration, installs the result atomically, and returns it. Queries
// already holding the previous sampler finish under the old settings;
// concurrent callers of Sampler see either the old or the new one, never a
// torn state. This is the hook behind the SQL session settings (SET workers
// = N etc.).
func (db *DB) UpdateConfig(mutate func(*sampler.Config)) sampler.Config {
	db.mu.Lock()
	defer db.mu.Unlock()
	cfg := db.cfg
	mutate(&cfg)
	db.cfg = cfg
	db.smp = sampler.New(cfg)
	return cfg
}

// Stats returns the engine-wide telemetry root shared by every handle of
// this database: the global sampler counter set plus the trace of the most
// recently observed query. It is the backing store of SHOW STATS.
func (db *DB) Stats() *obs.EngineStats {
	return &db.cat.stats
}

// ObserveQuery registers a statement trace as the engine's most recent
// query; the SQL layer calls it once per planned SELECT.
func (db *DB) ObserveQuery(q *obs.QueryStats) {
	db.cat.stats.ObserveQuery(q)
}

// LastQuery returns the trace of the most recently observed query (nil
// before the first planned statement).
func (db *DB) LastQuery() *obs.QueryStats {
	return db.cat.stats.LastQuery()
}

// CreateVariable implements CREATE_VARIABLE(distribution, params...): it
// allocates a fresh random variable drawn from the named distribution class
// (paper §V-A). The returned variable can be placed into c-table cells and
// conditions.
func (db *DB) CreateVariable(distName string, params ...float64) (*expr.Variable, error) {
	class, ok := dist.Lookup(distName)
	if !ok {
		return nil, fmt.Errorf("core: unknown distribution class %q (have %s)",
			distName, strings.Join(dist.Names(), ", "))
	}
	inst, err := dist.NewInstance(class, params...)
	if err != nil {
		return nil, err
	}
	return db.NewVariableFromInstance(inst, ""), nil
}

// NewVariableFromInstance allocates a variable for an existing distribution
// instance, optionally named for display.
func (db *DB) NewVariableFromInstance(inst dist.Instance, name string) *expr.Variable {
	db.cat.mu.Lock()
	id := db.cat.nextVar
	db.cat.nextVar++
	db.cat.mu.Unlock()
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: inst, Name: name}
}

// CreateJointVariables allocates the component variables of a multivariate
// distribution instance: one Variable per subscript, all sharing one id so
// the sampler draws them jointly.
func (db *DB) CreateJointVariables(inst dist.Instance, name string) ([]*expr.Variable, error) {
	mv, ok := inst.Class.(dist.Multivariater)
	if !ok {
		return nil, fmt.Errorf("core: %s is not a multivariate class", inst.Class.Name())
	}
	db.cat.mu.Lock()
	id := db.cat.nextVar
	db.cat.nextVar++
	db.cat.mu.Unlock()
	n := mv.Dim(inst.Params)
	out := make([]*expr.Variable, n)
	for i := 0; i < n; i++ {
		out[i] = &expr.Variable{Key: expr.VarKey{ID: id, Subscript: i}, Dist: inst, Name: name}
	}
	return out, nil
}

// Register installs (or replaces) a named table in the catalog. A replaced
// table's equality indexes are discarded.
func (db *DB) Register(t *ctable.Table) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	key := strings.ToLower(t.Name)
	delete(db.cat.eq, db.cat.tables[key])
	db.cat.tables[key] = t
}

// Table fetches a catalog table by name. A failed lookup wraps
// ErrUnknownTable.
func (db *DB) Table(name string) (*ctable.Table, error) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	t, ok := db.cat.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownTable, name)
	}
	return t, nil
}

// AppendRow appends one tuple to a catalog table under the catalog lock.
// All DML on live catalog tables goes through here (not Table.Append
// directly), so concurrent sessions' inserts and snapshots never race:
// existing tuples are immutable, appends are serialized, and snapshots
// capture a consistent prefix.
func (db *DB) AppendRow(t *ctable.Table, tp ctable.Tuple) error {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	return t.Append(tp)
}

// Snapshot returns the table's current rows under the catalog lock, with
// capacity clipped so a concurrent AppendRow reallocates instead of
// writing into the returned slice. Query scans iterate snapshots, never
// the live slice header.
func (db *DB) Snapshot(t *ctable.Table) []ctable.Tuple {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	return t.Tuples[:len(t.Tuples):len(t.Tuples)]
}

// Drop removes a table from the catalog, and its equality indexes with it.
func (db *DB) Drop(name string) {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	key := strings.ToLower(name)
	delete(db.cat.eq, db.cat.tables[key])
	delete(db.cat.tables, key)
}

// TableNames lists catalog tables in sorted order.
func (db *DB) TableNames() []string {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	out := make([]string, 0, len(db.cat.tables))
	for n := range db.cat.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Materialize stores a query result under a view name. The symbolic
// representation is lossless, so downstream expectations over the view are
// unbiased (paper §III-A) and online sampling can resume from it without
// re-running the deterministic query phase.
func (db *DB) Materialize(name string, t *ctable.Table) *ctable.Table {
	view := t.Clone()
	view.Name = name
	db.Register(view)
	return view
}

// ---------------------------------------------------------------------------
// Row-level analysis functions (paper §V-C)

// Conf estimates (or computes exactly) the probability of a tuple's
// condition — the row's confidence.
func (db *DB) Conf(t *ctable.Tuple) sampler.Result {
	return db.Sampler().AConf(t.Cond)
}

// Expectation computes E[column | row condition] for one tuple, optionally
// with the row probability.
func (db *DB) Expectation(t *ctable.Tuple, col int, getP bool) (sampler.Result, error) {
	return db.ExpectationContext(context.Background(), t, col, getP)
}

// ExpectationContext is Expectation under a request context: cancellation
// aborts sampling promptly and returns ctx.Err(), never a partial estimate.
func (db *DB) ExpectationContext(ctx context.Context, t *ctable.Tuple, col int, getP bool) (sampler.Result, error) {
	return TupleExpectation(db.SamplerContext(ctx), t, col, getP)
}

// TupleExpectation computes E[column | row condition] for one tuple using
// the given sampler — the sampler-parameterized core of ExpectationContext,
// letting callers (query operators) route the work through a scoped sampler
// that records into their own telemetry collection point.
func TupleExpectation(smp *sampler.Sampler, t *ctable.Tuple, col int, getP bool) (sampler.Result, error) {
	v := t.Values[col]
	e, ok := v.AsExpr()
	if !ok {
		return sampler.Result{}, fmt.Errorf("core: non-numeric expectation target %s", v)
	}
	var r sampler.Result
	if len(t.Cond.Clauses) == 1 {
		r = smp.Expectation(e, t.Cond.Clauses[0], getP)
	} else {
		r = smp.ExpectationDNF(e, t.Cond, getP)
	}
	if r.Err != nil {
		return sampler.Result{}, r.Err
	}
	return r, nil
}
