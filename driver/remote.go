package driver

import (
	"context"
	"database/sql/driver"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"pip"
	"pip/internal/sampler"
	"pip/internal/server"
)

// remoteScheme prefixes DSNs that route through the wire protocol to a
// pipd server instead of an in-process engine.
const remoteScheme = "pip://"

// isRemoteDSN reports whether the DSN names a network server.
func isRemoteDSN(dsn string) bool { return strings.HasPrefix(dsn, remoteScheme) }

// parseRemoteDSN splits pip://host:port[,host:port...]?key=value&... into
// the server addresses — the first is the primary, any further hosts are
// read replicas — and the session settings forwarded at connection time,
// validated here so a bad one fails sql.Open, not the first Connect.
//
// The host list is split by hand rather than url.Parse because net/url
// rejects comma-separated authorities whose last element lacks a port.
func parseRemoteDSN(dsn string) (hosts []string, settings map[string]json.Number, err error) {
	rest := strings.TrimPrefix(dsn, remoteScheme)
	hostPart, rawQuery, _ := strings.Cut(rest, "?")
	hostPart = strings.TrimSuffix(hostPart, "/")
	if strings.ContainsAny(hostPart, "/#") {
		return nil, nil, fmt.Errorf("pip driver: remote DSN %q must not carry a path", dsn)
	}
	for _, h := range strings.Split(hostPart, ",") {
		if h = strings.TrimSpace(h); h != "" {
			hosts = append(hosts, h)
		}
	}
	if len(hosts) == 0 {
		return nil, nil, fmt.Errorf("pip driver: remote DSN %q has no host:port", dsn)
	}
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return nil, nil, fmt.Errorf("pip driver: malformed remote DSN query %q: %w", rawQuery, err)
	}
	if q.Has("name") {
		return nil, nil, fmt.Errorf("pip driver: DSN key %q is for in-process databases (a server is already shared by name: its address)", "name")
	}
	settings = map[string]json.Number{}
	for k, vs := range q {
		settings[k] = json.Number(vs[len(vs)-1])
	}
	scratch := sampler.DefaultConfig()
	return hosts, settings, applySettings(&scratch, settings)
}

// remoteConnector implements driver.Connector against a pipd topology:
// every pooled connection opens its own server-side session on the primary
// (and, in a multi-host DSN, a second one on a replica chosen round-robin),
// so per-session state (SET settings) is per-connection, while the catalog
// behind all sessions is shared — DDL on one pooled connection is visible
// to every other, exactly like the in-process backend.
type remoteConnector struct {
	d        *Driver
	primary  *server.Client
	replicas []*server.Client
	next     atomic.Uint64
	settings map[string]json.Number
}

// Connect implements driver.Connector by creating a server session on the
// primary and, when the DSN names replicas, a read session on the next
// replica in round-robin order. A replica that cannot be reached degrades
// the connection to primary-only reads rather than failing it: replicas
// scale reads out, they are not required for correctness (every replica
// answer is bit-identical to the primary's at equal log positions anyway).
func (c *remoteConnector) Connect(ctx context.Context) (driver.Conn, error) {
	sess, err := c.primary.Session(ctx, c.settings)
	if err != nil {
		return nil, fmt.Errorf("pip driver: connect: %w", err)
	}
	conn := &remoteConn{sess: sess}
	if len(c.replicas) > 0 {
		rc := c.replicas[int(c.next.Add(1)-1)%len(c.replicas)]
		if rsess, rerr := rc.Session(ctx, c.settings); rerr == nil {
			conn.read = rsess
		}
	}
	return conn, nil
}

// Driver implements driver.Connector.
func (c *remoteConnector) Driver() driver.Driver { return c.d }

// remoteConn is one pooled connection: a live session on the primary and,
// in a replicated topology, a second session on one replica that serves
// this connection's reads.
type remoteConn struct {
	sess *server.ClientSession // primary: writes, and reads when read == nil
	read *server.ClientSession // replica read session (nil = single host)
}

// readSession returns the session that serves this connection's queries.
func (c *remoteConn) readSession() *server.ClientSession {
	if c.read != nil {
		return c.read
	}
	return c.sess
}

// isSetStmt reports whether query is a SET statement. SET is session-local
// state, so a replicated connection must run it on both of its sessions for
// later reads (replica) and writes (primary) to see the same settings.
func isSetStmt(query string) bool {
	q := strings.TrimSpace(query)
	if len(q) < 4 || !strings.EqualFold(q[:3], "SET") {
		return false
	}
	switch q[3] {
	case ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// mapSessionErr converts a lost-session failure (expired by the server's
// idle sweep, or a server restart) into driver.ErrBadConn, so
// database/sql discards this pooled connection and retries the statement
// on a fresh one — which opens a fresh server session — instead of
// failing every future statement on a permanently poisoned connection.
func mapSessionErr(err error) error {
	if errors.Is(err, server.ErrSessionUnknown) {
		return driver.ErrBadConn
	}
	return err
}

// Close implements driver.Conn by releasing the server-side sessions (the
// pool calls this without a context, so the release is time-bounded).
func (c *remoteConn) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var rerr error
	if c.read != nil {
		rerr = c.read.Close(ctx)
	}
	if err := c.sess.Close(ctx); err != nil {
		return err
	}
	return rerr
}

// Begin implements driver.Conn. Transactions are not supported.
func (c *remoteConn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("pip driver: transactions are not supported")
}

// Prepare implements driver.Conn.
func (c *remoteConn) Prepare(query string) (driver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext. On the wire a
// statement is its text, so preparing makes no round trip and parses
// nothing: the statement is sent with each execution and routed exactly as
// an unprepared one, and a syntax error surfaces at its first execution.
func (c *remoteConn) PrepareContext(_ context.Context, query string) (driver.Stmt, error) {
	return &remoteStmt{c: c, query: query}, nil
}

// QueryContext implements driver.QueryerContext (direct, unprepared
// queries) over one wire round trip, routed to this connection's read
// session. A mutation issued through Query on a replica comes back
// ErrReadOnly and is retried on the primary, so misrouted writes still
// land correctly.
func (c *remoteConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	bound, err := bindNamed(args)
	if err != nil {
		return nil, err
	}
	rows, err := c.readSession().Query(ctx, query, bound...)
	if err != nil && c.read != nil && errors.Is(err, pip.ErrReadOnly) {
		rows, err = c.sess.Query(ctx, query, bound...)
	}
	if err != nil {
		return nil, mapSessionErr(err)
	}
	return &Rows{rows: rows}, nil
}

// ExecContext implements driver.ExecerContext (direct, unprepared
// statements), routed to the primary. SET additionally runs on the read
// session: session settings are local to each session, and this
// connection's reads must sample under the same settings as its writes.
func (c *remoteConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	bound, err := bindNamed(args)
	if err != nil {
		return nil, err
	}
	if _, err := c.sess.Exec(ctx, query, bound...); err != nil {
		return nil, mapSessionErr(err)
	}
	if c.read != nil && isSetStmt(query) {
		if _, err := c.read.Exec(ctx, query, bound...); err != nil {
			return nil, mapSessionErr(err)
		}
	}
	return driver.ResultNoRows, nil
}

// remoteStmt implements driver.Stmt as the statement's text on its
// connection; every execution goes through the connection's own Exec/Query
// routing (SET on both sessions, reads on the replica, the read-only
// bounce back to the primary).
type remoteStmt struct {
	c     *remoteConn
	query string
}

// Close implements driver.Stmt; there is nothing to release.
func (s *remoteStmt) Close() error { return nil }

// NumInput implements driver.Stmt. The placeholder count is unknown without
// parsing, so database/sql leaves the arity check to the server, which
// answers a mismatch with ErrBind.
func (s *remoteStmt) NumInput() int { return -1 }

// Exec implements driver.Stmt.
func (s *remoteStmt) Exec(args []driver.Value) (driver.Result, error) {
	return s.ExecContext(context.Background(), namedValues(args))
}

// ExecContext implements driver.StmtExecContext.
func (s *remoteStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.c.ExecContext(ctx, s.query, args)
}

// Query implements driver.Stmt.
func (s *remoteStmt) Query(args []driver.Value) (driver.Rows, error) {
	return s.QueryContext(context.Background(), namedValues(args))
}

// QueryContext implements driver.StmtQueryContext.
func (s *remoteStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.c.QueryContext(ctx, s.query, args)
}
