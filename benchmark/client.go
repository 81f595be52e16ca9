package main

import (
	"context"
	"database/sql"
	"fmt"
	"math"
	"sync"
	"time"

	_ "pip/driver" // registers the "pip" database/sql driver
)

// FNV-1a, folded over typed values so the wire result and the in-process
// reference hash identically without rendering floats as text.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// hashValue folds one result cell, in the Go type the driver delivers it.
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case float64:
		return hashU64(hashU64(h, 'f'), math.Float64bits(x))
	case int64:
		return hashU64(hashU64(h, 'i'), uint64(x))
	case string:
		h = hashU64(h, 's')
		for i := 0; i < len(x); i++ {
			h = (h ^ uint64(x[i])) * fnvPrime
		}
		return hashU64(h, uint64(len(x)))
	case bool:
		if x {
			return hashU64(h, 't')
		}
		return hashU64(h, 'F')
	case nil:
		return hashU64(h, 'n')
	default:
		return hashU64(h, '?')
	}
}

// tracer records harness-side spans in memory. A nil tracer records
// nothing, so the untraced runs pay one nil check per boundary. It is used
// from one goroutine only (the traced pass has one client).
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return id
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.origin))
	}
}

// derive appends a span whose interval was worked out after the fact.
func (t *tracer) derive(name string, parent, req int32, start, end int64) {
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: req, Name: name, Start: start, End: end})
}

// dial opens a database/sql pool on the pipd at addr.
func dial(addr string) (*sql.DB, error) { return sql.Open("pip", "pip://"+addr) }

// client is one closed-loop caller: a dedicated database/sql connection
// (one pipd session) that sends its next operation only after the previous
// reply is fully consumed.
type client struct {
	w       *workload
	conn    *sql.Conn
	writes  map[int]*sql.Stmt
	stream  *opStream
	origin  time.Time
	tr      *tracer
	samples []sample
	acked   int // writes acknowledged over the client's whole life
	scratch []any
	ptrs    []any
}

func newClient(ctx context.Context, db *sql.DB, w *workload, stream *opStream, origin time.Time, tr *tracer) (*client, error) {
	conn, err := db.Conn(ctx)
	if err != nil {
		return nil, err
	}
	c := &client{w: w, conn: conn, writes: map[int]*sql.Stmt{}, stream: stream, origin: origin, tr: tr,
		samples: make([]sample, 0, 1<<16)}
	for i, st := range w.stmts {
		if st.write {
			ps, err := conn.PrepareContext(ctx, st.text)
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("prepare %s: %w", st.name, err)
			}
			c.writes[i] = ps
		}
	}
	return c, nil
}

func (c *client) close() {
	for _, ps := range c.writes {
		ps.Close()
	}
	c.conn.Close()
}

// loop issues operations back to back until the deadline; an operation in
// flight at the deadline completes.
func (c *client) loop(ctx context.Context, deadline time.Time) {
	for time.Now().Before(deadline) && ctx.Err() == nil {
		c.do(ctx, c.stream.next(), time.Now())
	}
}

// pace issues one operation every interval from start until the deadline,
// open loop: an operation is timed from when it was due, so a stall is
// charged to every operation it delayed.
func (c *client) pace(ctx context.Context, start, deadline time.Time, every time.Duration) {
	for due := start; due.Before(deadline) && ctx.Err() == nil; due = due.Add(every) {
		time.Sleep(time.Until(due))
		c.do(ctx, c.stream.next(), due)
	}
}

// do executes one operation, timed from start, and appends its sample.
func (c *client) do(ctx context.Context, o op, start time.Time) {
	st := &c.w.stmts[o.stmt]
	req := int32(len(c.samples))
	s := sample{stmt: int32(o.stmt), key: o.key, hash: fnvOffset}
	root := c.tr.begin("wire.op", -1, req)
	s.start = int64(start.Sub(c.origin))
	if st.write {
		_, err := c.writes[o.stmt].ExecContext(ctx, eventArgs(o.key)...)
		s.end = int64(time.Since(c.origin))
		s.first = s.end
		s.failed = err != nil
		if err == nil {
			c.acked++
		}
	} else {
		s.failed = c.read(ctx, st, o.key, &s, root, req) != nil
	}
	c.tr.end(root)
	c.samples = append(c.samples, s)
}

// read sends the statement text unprepared (the server parses and plans it
// on every call, as it does for most callers) and scans every row.
func (c *client) read(ctx context.Context, st *statement, key int64, s *sample, root, req int32) error {
	q := c.tr.begin("driver.query", root, req)
	rows, err := c.conn.QueryContext(ctx, st.text, key)
	c.tr.end(q)
	if err != nil {
		s.end = int64(time.Since(c.origin))
		s.first = s.end
		return err
	}
	defer rows.Close()
	it := c.tr.begin("driver.rows", root, req)
	n, err := c.scan(rows, s)
	s.end = int64(time.Since(c.origin))
	c.tr.end(it)
	if n == 0 {
		s.first = s.end
	}
	return err
}

// scan drains rows into the sample's hash, stamping the first row's arrival.
func (c *client) scan(rows *sql.Rows, s *sample) (uint64, error) {
	cols, err := rows.Columns()
	if err != nil {
		return 0, err
	}
	if len(c.scratch) != len(cols) {
		c.scratch = make([]any, len(cols))
		c.ptrs = make([]any, len(cols))
		for i := range c.scratch {
			c.ptrs[i] = &c.scratch[i]
		}
	}
	n := uint64(0)
	for rows.Next() {
		if n == 0 {
			s.first = int64(time.Since(c.origin))
		}
		if err := rows.Scan(c.ptrs...); err != nil {
			return n, err
		}
		for _, v := range c.scratch {
			s.hash = hashValue(s.hash, v)
		}
		n++
	}
	s.hash = hashU64(s.hash, n)
	return n, rows.Err()
}

// drive runs the workload against addr from now (warm-up) until measure
// after origin: n closed-loop clients and, where the workload has a paced
// statement, the connections that send it. It returns every sample (warm-up
// included; windows drops it), the closed-loop clients' first so that a
// tracer's request ids index them, and the number of acknowledged writes.
// round picks the key streams, so the rounds of one run ask in different
// orders.
func drive(ctx context.Context, addr string, w *workload, seed uint64, round, n int, origin time.Time, measure time.Duration, tr *tracer) ([]sample, int, error) {
	db, err := dial(addr)
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	total := n
	if w.pacedEvery > 0 {
		total += pacedConns
	}
	db.SetMaxOpenConns(total)
	clients := make([]*client, total)
	for i := range clients {
		pattern, spans := w.pattern, tr
		if i >= n {
			pattern, spans = []int{w.paced}, nil
		}
		c, err := newClient(ctx, db, w, newOpStream(w, pattern, seed, round, i, total), origin, spans)
		if err != nil {
			for _, prev := range clients[:i] {
				prev.close()
			}
			return nil, 0, err
		}
		clients[i] = c
	}
	start, deadline := time.Now(), origin.Add(measure)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < n {
				c.loop(ctx, deadline)
			} else {
				c.pace(ctx, start, deadline, w.pacedEvery)
			}
		}()
	}
	wg.Wait()
	var all []sample
	acked := 0
	for _, c := range clients {
		all = append(all, c.samples...)
		acked += c.acked
		c.close()
	}
	return all, acked, ctx.Err()
}
