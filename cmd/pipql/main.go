// Command pipql is an interactive REPL over PIP's SQL subset, against
// either an in-process engine or a remote pipd server.
//
//	pipql [-seed N] [-demo]                  # in-process database
//	pipql -connect host:port [-demo]         # remote session on a pipd server
//
// With -demo, the running example of the paper (orders x shipping) is
// preloaded. Statements end with a semicolon; \d lists tables, \timing
// toggles per-query wall time, \q quits. Results stream row by row,
// EXPLAIN [ANALYZE] prints the planner's operator tree, Ctrl-C cancels the
// running query (the parallel sampler aborts at its next round barrier —
// in -connect mode the cancellation travels to the server by tearing down
// the HTTP stream), and parse errors report their line:column position
// with a caret in both modes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"pip"
	"pip/internal/server"
)

// backend abstracts the two execution modes: query executes one statement
// and returns its result set, demoPresent reports whether the demo tables
// already exist (a shared server may have them), describe lists the
// catalog, close releases any remote state.
type backend interface {
	query(ctx context.Context, stmt string) (resultSet, error)
	demoPresent() bool
	describe()
	close()
}

// resultSet is what run and queryStats need of a result: *pip.Rows and
// *server.ClientRows, plus the condition text localRows and remoteRows add.
type resultSet interface {
	Columns() []string
	Next() bool
	Err() error
	Close() error
	NumCells() int
	Native(i int) (any, error)
	condText() string
}

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "world seed (with -connect, overrides the session's server-inherited seed only when set explicitly)")
		connect = flag.String("connect", "", "host:port of a pipd server; empty = in-process")
		demo    = flag.Bool("demo", false, "preload the paper's running example")
	)
	flag.Parse()
	// The session inherits the server's configured seed unless the user set
	// -seed explicitly — pipd's operator chooses the default, not this
	// client's flag default.
	var settings map[string]json.Number
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			settings = map[string]json.Number{"seed": json.Number(f.Value.String())}
		}
	})

	var be backend
	if *connect != "" {
		rb, err := newRemoteBackend(*connect, settings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipql: %v\n", err)
			os.Exit(1)
		}
		be = rb
		fmt.Printf("Connected to pipd at %s (session %s).\n", *connect, rb.sess.ID())
	} else {
		be = &localBackend{db: pip.Open(pip.Options{Seed: *seed})}
	}
	defer be.close()

	if *demo {
		// A shared server may already hold the demo (pipd -demo, or an
		// earlier client): reloading would replace the shared tables and
		// change every other session's results, so skip instead.
		if be.demoPresent() {
			fmt.Println("Demo tables already present on the server; not reloading.")
		} else if err := loadDemo(be); err != nil {
			fmt.Fprintf(os.Stderr, "pipql: demo load: %v\n", err)
		} else {
			fmt.Println("Demo tables loaded: orders(cust, shipto, price), shipping(dest, duration)")
			fmt.Println(`Try: SELECT expected_sum(o.price) FROM orders o, shipping s
     WHERE o.shipto = s.dest AND o.cust = 'Joe' AND s.duration >= 7;`)
		}
	}

	fmt.Println("pipql — PIP probabilistic SQL. End statements with ';'. \\d lists tables, \\timing toggles timing, \\stats shows engine telemetry, \\trace toggles per-query phase timings, \\q quits.")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	timing := false
	trace := false
	var buf strings.Builder
	fmt.Print("pip> ")
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`, "quit", "exit":
			return
		case `\d`:
			be.describe()
			fmt.Print("pip> ")
			continue
		case `\stats`:
			runCancellable(be, "SHOW STATS;")
			fmt.Print("pip> ")
			continue
		case `\trace`:
			trace = !trace
			if trace {
				fmt.Println("Tracing is on: phase timings print after each statement.")
			} else {
				fmt.Println("Tracing is off.")
			}
			fmt.Print("pip> ")
			continue
		case `\timing`:
			timing = !timing
			if timing {
				fmt.Println("Timing is on.")
			} else {
				fmt.Println("Timing is off.")
			}
			fmt.Print("pip> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("...> ")
			continue
		}
		stmt := buf.String()
		buf.Reset()
		start := time.Now()
		runCancellable(be, stmt)
		if timing {
			fmt.Printf("Time: %.3f ms\n", float64(time.Since(start).Microseconds())/1000)
		}
		if trace {
			printTrace(be)
		}
		fmt.Print("pip> ")
	}
}

// printTrace renders the last query's phase timings and sampler counters
// (the query-scope rows of SHOW STATS) as one compact line — the \trace
// output printed after each statement.
func printTrace(be backend) {
	byName, err := queryStats(context.Background(), be)
	if err != nil {
		fmt.Printf("trace: %v\n", err)
		return
	}
	if len(byName) == 0 {
		fmt.Println("Trace: no traced query yet.")
		return
	}
	parts := make([]string, 0, 6)
	for _, ph := range []string{"parse", "plan", "rewrite", "execute"} {
		if secs, ok := byName["phase_"+ph+"_seconds"]; ok {
			parts = append(parts, fmt.Sprintf("%s %s", ph, time.Duration(secs*float64(time.Second)).Round(time.Microsecond)))
		}
	}
	if n := byName["samples"]; n > 0 {
		parts = append(parts, fmt.Sprintf("samples=%.0f batches=%.0f", n, byName["batches"]))
	}
	if att := byName["rejection_attempts"]; att > 0 {
		parts = append(parts, fmt.Sprintf("accept=%.3f", byName["rejection_accepts"]/att))
	}
	fmt.Printf("Trace: %s\n", strings.Join(parts, " · "))
}

// runCancellable executes one statement under a Ctrl-C-cancellable
// context: the sampler aborts and the query reports the cancellation
// instead of a partial result (remotely, closing the stream cancels the
// server-side query).
func runCancellable(be backend, stmt string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	run(ctx, be, stmt)
}

// run executes one statement and prints its result, streaming rows as the
// backend produces them.
func run(ctx context.Context, be backend, stmt string) {
	rows, err := be.query(ctx, stmt)
	if err != nil {
		printError(err)
		return
	}
	defer rows.Close()

	cols := rows.Columns()
	// EXPLAIN results are an already-indented operator tree: print the
	// lines raw instead of as tuples.
	plan := len(cols) == 1 && cols[0] == "QUERY PLAN"
	if len(cols) > 0 && !plan {
		fmt.Printf("(%s)\n", strings.Join(cols, ", "))
	}
	// A statement without columns is drained too, so its outcome is real
	// and a remote connection returns to the keep-alive pool (closing early
	// reads as a client disconnect server-side).
	n := 0
	for rows.Next() {
		cells := make([]string, rows.NumCells())
		for i := range cells {
			if cells[i], err = cellText(rows, i); err != nil {
				printError(err)
				return
			}
		}
		if plan {
			fmt.Println(cells[0])
		} else {
			fmt.Printf("  (%s) | %s\n", strings.Join(cells, ", "), rows.condText())
		}
		n++
	}
	switch err := rows.Err(); {
	case err != nil:
		printError(err)
	case len(cols) == 0:
		fmt.Println("ok")
	case !plan:
		fmt.Printf("%d row(s)\n", n)
	}
}

// cellText renders cell i of the current row in the engine's display
// formatting (ctable.Value.String), whichever backend produced it.
func cellText(rows resultSet, i int) (string, error) {
	n, err := rows.Native(i)
	if err != nil {
		return "", err
	}
	v, err := pip.BindValue(n)
	return v.String(), err
}

// queryStats maps name to value over SHOW STATS' query-scope rows.
func queryStats(ctx context.Context, be backend) (map[string]float64, error) {
	rows, err := be.query(ctx, "SHOW STATS")
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	byName := map[string]float64{}
	for rows.Next() {
		var cell [3]any
		for i := range cell {
			if cell[i], err = rows.Native(i); err != nil {
				return nil, err
			}
		}
		if name, _ := cell[1].(string); cell[0] == "query" {
			byName[name], _ = cell[2].(float64)
		}
	}
	return byName, rows.Err()
}

// loadDemo installs the paper's running example (server.DemoStatements,
// the dataset every -demo surface shares) through the backend, so it
// works identically in-process and against a server.
func loadDemo(be backend) error {
	for _, stmt := range server.DemoStatements {
		rows, err := be.query(context.Background(), stmt)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		rows.Close()
		if err := rows.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// In-process backend

// localBackend executes against an embedded pip.DB.
type localBackend struct {
	db *pip.DB
}

func (b *localBackend) close() {}

// demoPresent is always false in-process: the database is freshly opened.
func (b *localBackend) demoPresent() bool { return false }

// localRows adapts *pip.Rows to resultSet.
type localRows struct{ *pip.Rows }

func (r localRows) condText() string { return r.Cond().String() }

// query runs one statement on the embedded engine.
func (b *localBackend) query(ctx context.Context, stmt string) (resultSet, error) {
	rows, err := b.db.QueryContext(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return localRows{rows}, nil
}

// describe lists catalog tables; lookup failures print instead of
// silently dropping the table from the listing.
func (b *localBackend) describe() {
	for _, n := range b.db.Core().TableNames() {
		tb, err := b.db.Table(n)
		if err != nil {
			fmt.Printf("  %s — error: %v\n", n, err)
			continue
		}
		fmt.Printf("  %s(%s) — %d rows\n", n, strings.Join(tb.Schema.Names(), ", "), tb.Len())
	}
}

// ---------------------------------------------------------------------------
// Remote backend

// remoteBackend executes against a pipd session over the wire protocol.
// settings are kept so an expired session can be reopened transparently.
type remoteBackend struct {
	client   *server.Client
	sess     *server.ClientSession
	settings map[string]json.Number
}

// newRemoteBackend connects, verifies liveness, and opens a session with
// the given settings.
func newRemoteBackend(addr string, settings map[string]json.Number) (*remoteBackend, error) {
	client := server.NewClient(addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("cannot reach pipd at %s: %w", addr, err)
	}
	sess, err := client.Session(ctx, settings)
	if err != nil {
		return nil, err
	}
	return &remoteBackend{client: client, sess: sess, settings: settings}, nil
}

// refresh reopens the backend's session after the server forgot it (idle
// sweep or restart), so a long-idle REPL recovers instead of failing
// every statement. SET state of the old session is lost; the original
// connect-time settings are re-applied.
func (b *remoteBackend) refresh(ctx context.Context) error {
	sess, err := b.client.Session(ctx, b.settings)
	if err != nil {
		return err
	}
	b.sess = sess
	fmt.Printf("(session expired on the server; reconnected as %s — SET state was reset)\n", sess.ID())
	return nil
}

func (b *remoteBackend) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.sess.Close(ctx)
}

// demoPresent reports whether the server's shared catalog already holds
// the demo tables.
func (b *remoteBackend) demoPresent() bool {
	tables, err := b.client.Tables(context.Background())
	if err != nil {
		return false
	}
	have := map[string]bool{}
	for _, t := range tables {
		have[t.Name] = true
	}
	return have["orders"] && have["shipping"]
}

// remoteRows adapts *server.ClientRows to resultSet.
type remoteRows struct{ *server.ClientRows }

// condText renders a deterministic row's condition as localRows does.
func (r remoteRows) condText() string {
	if c := r.Cond(); c != "" {
		return c
	}
	return "TRUE"
}

// query runs one statement in the remote session. A session the server
// expired is reopened once and the statement retried.
func (b *remoteBackend) query(ctx context.Context, stmt string) (resultSet, error) {
	rows, err := b.sess.Query(ctx, stmt)
	if errors.Is(err, server.ErrSessionUnknown) {
		if rerr := b.refresh(ctx); rerr == nil {
			rows, err = b.sess.Query(ctx, stmt)
		}
	}
	if err != nil {
		return nil, err
	}
	return remoteRows{rows}, nil
}

// describe lists the server's shared catalog.
func (b *remoteBackend) describe() {
	tables, err := b.client.Tables(context.Background())
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	for _, t := range tables {
		fmt.Printf("  %s(%s) — %d rows\n", t.Name, strings.Join(t.Columns, ", "), t.Rows)
	}
}

// ---------------------------------------------------------------------------

// printError reports a statement failure; parse errors render the
// offending source line with a caret under the error column (local and
// remote — the wire carries the position).
func printError(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Println("cancelled")
		return
	}
	var pe *pip.ParseError
	if errors.As(err, &pe) {
		fmt.Printf("error: %v\n", pe)
		if line := pe.SourceLine(); line != "" {
			fmt.Printf("  %s\n", line)
			fmt.Printf("  %s^\n", strings.Repeat(" ", pe.Col-1))
		}
		return
	}
	fmt.Printf("error: %v\n", err)
}
