// Package driver embeds PIP into the standard library's database/sql
// machinery: importing it (for side effects) registers a driver named
// "pip", so the probabilistic engine is usable through the idioms Go
// services already build on — connection pools, prepared statements with ?
// placeholders, and context-aware querying:
//
//	import (
//		"database/sql"
//		_ "pip/driver"
//	)
//
//	db, _ := sql.Open("pip", "seed=1")
//	db.Exec(`CREATE TABLE orders (cust, price)`)
//	st, _ := db.Prepare(`SELECT cust FROM orders WHERE price > ?`)
//	rows, _ := st.QueryContext(ctx, 95)
//
// # Data source names
//
// The driver has two backends, selected by the DSN.
//
// An **in-process** DSN is a &-separated key=value list
//
//	[name=X&]seed=N&workers=N&epsilon=F&delta=F&samples=N&max_samples=N&min_samples=N
//
// where name shares one in-memory database between every sql.Open with
// the same name (process-wide), like SQLite's shared cache, and every
// other key is a session setting: the names, bounds and meanings of the
// SQL SET statement (docs/SQL.md). An empty DSN opens a fresh in-memory
// database private to that sql.DB pool. Every connection of a pool shares
// the same underlying pip.DB, so DDL executed on one pooled connection is
// visible to all others.
//
// A **remote** DSN of the form
//
//	pip://host:port[?seed=N&workers=N&epsilon=F&delta=F&samples=N&max_samples=N&min_samples=N]
//
// routes every statement through the pipd wire protocol (internal/server).
// Each pooled connection opens its own server-side session, created with
// the DSN's settings: SET statements are per-connection, while the catalog
// is shared by every session of the server — DDL on one connection (or one
// client process) is visible to all. A prepared statement is its text,
// sent again with each execution. The determinism contract crosses the
// wire intact: equal seeds give bit-identical results whether the DSN is
// in-process or remote.
//
// A remote DSN may name a **replicated topology** by listing hosts:
//
//	pip://primary:7432,replica1:7432,replica2:7432
//
// The first host is the primary; the rest are read replicas (pipd -follow).
// Each pooled connection then holds a session on the primary and a session
// on one replica, chosen round-robin, and routes statements by kind: Query
// runs on the replica, Exec on the primary, SET on both (settings are
// session-local). A mutation issued through Query bounces off the replica's
// read-only guard and is transparently retried on the primary. Because
// replicas are bit-identical to the primary at equal log positions, routing
// changes where a query runs, never what it answers — though a read may
// observe a write slightly late if the replica has not applied it yet
// (replication is asynchronous).
//
// # Value mapping
//
// Deterministic cells scan as float64, int64, string and bool. Symbolic
// cells — random-variable equations — have no driver.Value representation,
// so they scan as their equation string (e.g. "x1 + 5"); apply expectation
// operators in SQL (expectation(col), expected_sum(col)) to obtain
// numbers, or use the native pip API for symbolic results. Transactions
// are not supported.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"pip"
	"pip/internal/sampler"
	"pip/internal/server"
)

func init() {
	sql.Register("pip", Default)
}

// Default is the Driver instance registered under the name "pip". It owns
// the process-wide registry of name=... shared databases.
var Default = &Driver{shared: map[string]*pip.DB{}}

// Driver implements driver.Driver and driver.DriverContext.
type Driver struct {
	mu     sync.Mutex
	shared map[string]*pip.DB
}

// Open implements driver.Driver.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector implements driver.DriverContext, dispatching on the DSN:
// pip://host:port DSNs return a remote connector speaking the pipd wire
// protocol (each pooled connection opens its own server session), any
// other DSN is parsed once as in-process options and every connection of
// the pool shares one pip.DB. Either way the DSN's session settings are
// validated here, so a bad name or value fails sql.Open.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	if isRemoteDSN(dsn) {
		hosts, settings, err := parseRemoteDSN(dsn)
		if err != nil {
			return nil, err
		}
		rc := &remoteConnector{d: d, primary: server.NewClient(hosts[0]), settings: settings}
		for _, h := range hosts[1:] {
			rc.replicas = append(rc.replicas, server.NewClient(h))
		}
		return rc, nil
	}
	name, settings, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	db := d.shared[name] // never holds "", so a nameless DSN opens a private database
	if db == nil {
		db = pip.Open(pip.Options{})
		db.Core().UpdateConfig(func(cfg *sampler.Config) { _ = applySettings(cfg, settings) }) // validated by parseDSN
		if name != "" {
			d.shared[name] = db
		}
	}
	return &Connector{d: d, db: db}, nil
}

// applySettings applies a DSN's session settings to cfg: the settings table
// of internal/sampler under its open-time rule (seed 0 = engine default).
func applySettings(cfg *sampler.Config, settings map[string]json.Number) error {
	for k, v := range settings {
		if err := sampler.ApplyOpenSetting(cfg, k, v.String()); err != nil {
			return fmt.Errorf("pip driver: invalid DSN: %w", err)
		}
	}
	return nil
}

// parseDSN splits the &-separated key=value in-process data source name into
// the shared-database name and the session settings, validated.
func parseDSN(dsn string) (name string, settings map[string]json.Number, err error) {
	settings = map[string]json.Number{}
	for _, kv := range strings.Split(dsn, "&") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return "", nil, fmt.Errorf("pip driver: malformed DSN entry %q (want key=value)", kv)
		}
		if k = strings.ToLower(strings.TrimSpace(k)); k == "name" {
			name = v
		} else {
			settings[k] = json.Number(v)
		}
	}
	scratch := sampler.DefaultConfig()
	return name, settings, applySettings(&scratch, settings)
}

// Connector implements driver.Connector over a shared pip.DB.
type Connector struct {
	d  *Driver
	db *pip.DB
}

// Connect implements driver.Connector.
func (c *Connector) Connect(context.Context) (driver.Conn, error) {
	return &Conn{db: c.db}, nil
}

// Driver implements driver.Connector.
func (c *Connector) Driver() driver.Driver { return c.d }

// DB returns the underlying pip database, escaping to the native API
// (symbolic results, programmatic operators) from a database/sql pool.
func (c *Connector) DB() *pip.DB { return c.db }

// Conn implements driver.Conn; every pooled connection shares the
// connector's database.
type Conn struct {
	db *pip.DB
}

// Prepare implements driver.Conn.
func (c *Conn) Prepare(query string) (driver.Stmt, error) {
	st, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{st: st}, nil
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *Conn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Prepare(query)
}

// Close implements driver.Conn. The underlying database is shared with the
// pool, so closing a connection releases nothing.
func (c *Conn) Close() error { return nil }

// Begin implements driver.Conn. Transactions are not supported.
func (c *Conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("pip driver: transactions are not supported")
}

// QueryContext implements driver.QueryerContext (direct, unprepared
// queries).
func (c *Conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	st, err := c.db.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return stmtQuery(ctx, st, args)
}

// ExecContext implements driver.ExecerContext (direct, unprepared
// statements).
func (c *Conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	st, err := c.db.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return stmtExec(ctx, st, args)
}

// Stmt implements driver.Stmt over a native prepared statement.
type Stmt struct {
	st *pip.Stmt
}

// Close implements driver.Stmt.
func (s *Stmt) Close() error { return s.st.Close() }

// NumInput implements driver.Stmt.
func (s *Stmt) NumInput() int { return s.st.NumInput() }

// Exec implements driver.Stmt.
func (s *Stmt) Exec(args []driver.Value) (driver.Result, error) {
	return stmtExec(context.Background(), s.st, namedValues(args))
}

// ExecContext implements driver.StmtExecContext.
func (s *Stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return stmtExec(ctx, s.st, args)
}

// Query implements driver.Stmt.
func (s *Stmt) Query(args []driver.Value) (driver.Rows, error) {
	return stmtQuery(context.Background(), s.st, namedValues(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *Stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return stmtQuery(ctx, s.st, args)
}

// namedValues adapts positional driver.Values to NamedValues.
func namedValues(args []driver.Value) []driver.NamedValue {
	out := make([]driver.NamedValue, len(args))
	for i, a := range args {
		out[i] = driver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return out
}

// bindNamed converts driver argument values to engine bind arguments.
func bindNamed(args []driver.NamedValue) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("pip driver: named parameter %q not supported (use ? placeholders)", a.Name)
		}
		switch v := a.Value.(type) {
		case int64, float64, bool, string, []byte, nil:
			out[i] = v
		default:
			return nil, fmt.Errorf("pip driver: unsupported argument type %T", a.Value)
		}
	}
	return out, nil
}

func stmtExec(ctx context.Context, st *pip.Stmt, args []driver.NamedValue) (driver.Result, error) {
	bound, err := bindNamed(args)
	if err != nil {
		return nil, err
	}
	if err := st.ExecContext(ctx, bound...); err != nil {
		return nil, err
	}
	return driver.ResultNoRows, nil
}

func stmtQuery(ctx context.Context, st *pip.Stmt, args []driver.NamedValue) (driver.Rows, error) {
	bound, err := bindNamed(args)
	if err != nil {
		return nil, err
	}
	rows, err := st.QueryContext(ctx, bound...)
	if err != nil {
		return nil, err
	}
	return &Rows{rows: rows}, nil
}

// rowSource is what Rows needs of a result set: *pip.Rows in-process,
// *server.ClientRows (a remote query's incrementally read stream) remotely.
type rowSource interface {
	Columns() []string
	Next() bool
	Err() error
	Close() error
	NumCells() int
	Native(i int) (any, error)
}

// Rows implements driver.Rows over either backend's result set, so a cell
// maps to the same driver.Value — bit-identical under equal seeds — whether
// the DSN is in-process or remote.
type Rows struct {
	rows rowSource
}

// Columns implements driver.Rows.
func (r *Rows) Columns() []string { return r.rows.Columns() }

// Close implements driver.Rows; closing a remote result mid-stream cancels
// the server-side query.
func (r *Rows) Close() error { return r.rows.Close() }

// Next implements driver.Rows: deterministic cells convert to their
// driver.Value type, symbolic cells to their equation string.
func (r *Rows) Next(dest []driver.Value) error {
	if !r.rows.Next() {
		if err := r.rows.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	if n := r.rows.NumCells(); len(dest) != n {
		return fmt.Errorf("pip driver: %d destinations for %d columns", len(dest), n)
	}
	for i := range dest {
		n, err := r.rows.Native(i)
		if err != nil {
			return err
		}
		dest[i] = n
	}
	return nil
}
