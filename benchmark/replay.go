package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pip"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/server"
	"pip/internal/sql"
)

// reference is the in-process twin of the pipd under test: the same engine,
// seed and settings, fed the same statements. Answers are a pure function of
// (catalog, query, settings), so every wire result must hash to what the
// reference computes; the traced pass also times each layer's public entry
// point here, in the order the server calls them.
type reference struct {
	db     *core.DB
	insert *sql.Prepared
	plans  map[op]planShape
	buf    bytes.Buffer
}

// planShape is what EXPLAIN ANALYZE says about one operation.
type planShape struct {
	samplerShare float64 // self time of the operators that drew samples ÷ root time
	examined     int64   // rows the leaf scans emitted
	out          int64   // rows the root emitted
}

// newEngine opens an empty in-process engine configured like the pipd under
// test: its seed, defaults for everything else.
func newEngine() *core.DB { return pip.Open(pip.Options{Seed: engineSeed}).Core() }

// newReference builds the twin and loads the catalog into it.
func newReference(ctx context.Context, cat *catalog) (*reference, error) {
	r := &reference{db: newEngine(), plans: map[op]planShape{}}
	if err := loadInProcess(ctx, r.db, cat); err != nil {
		return nil, err
	}
	ins, err := sql.Prepare(eventInsert)
	if err != nil {
		return nil, err
	}
	r.insert = ins
	return r, nil
}

// loadInProcess executes the catalog's statements on db in wire order.
func loadInProcess(ctx context.Context, db *core.DB, cat *catalog) error {
	prepared := map[string]*sql.Prepared{}
	for _, ls := range cat.statements() {
		p := prepared[ls.text]
		if p == nil {
			var err error
			if p, err = sql.Prepare(ls.text); err != nil {
				return fmt.Errorf("reference: %.60s: %w", ls.text, err)
			}
			prepared[ls.text] = p
		}
		vals, err := bind(ls.args)
		if err != nil {
			return err
		}
		if _, err := p.ExecContext(ctx, db, vals...); err != nil {
			return fmt.Errorf("reference: load %.60s: %w", ls.text, err)
		}
	}
	return nil
}

func bind(args []any) ([]ctable.Value, error) {
	out := make([]ctable.Value, len(args))
	for i, a := range args {
		v, err := pip.BindValue(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// readResult is one replayed read: the hash the wire result must equal, the
// rows in driver types, and the encoded response size.
type readResult struct {
	hash  uint64
	rows  [][]any
	bytes int
	exec  int32 // the sql.exec span, -1 untraced
}

// read replays one read through the layers' public functions — sql.Prepare
// (parse), Prepared.QueryContext (bind, plan, rewrite, open), Cursor.Next
// (operators and sampling), server.EncodeValue + NDJSON chunks (encode),
// chunk unmarshal + Value.Native (driver decode) — with one span around each.
func (r *reference) read(ctx context.Context, tr *tracer, req int32, text string, key int64) (readResult, error) {
	var res readResult
	root := tr.begin("inproc.op", -1, req)
	defer tr.end(root)

	s := tr.begin("sql.parse", root, req)
	p, err := sql.Prepare(text)
	tr.end(s)
	if err != nil {
		return res, err
	}

	s = tr.begin("sql.plan", root, req)
	cur, err := p.QueryContext(ctx, r.db, ctable.Int(key))
	tr.end(s)
	if err != nil {
		return res, err
	}

	exec := tr.begin("sql.exec", root, req)
	res.exec = exec
	var tuples []ctable.Tuple
	for {
		t, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			cur.Close()
			tr.end(exec)
			return res, err
		}
		// The cursor reuses the tuple; the server encodes it before the
		// next call, the replay keeps a copy to encode afterwards.
		tuples = append(tuples, ctable.Tuple{Values: append([]ctable.Value(nil), t.Values...), Cond: t.Cond})
	}
	cols := cur.Columns()
	cur.Close()
	tr.end(exec)

	s = tr.begin("server.encode", root, req)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	err = enc.Encode(server.Chunk{K: "head", Columns: cols})
	for i := range tuples {
		wire := make([]server.Value, len(tuples[i].Values))
		for j, v := range tuples[i].Values {
			wire[j] = server.EncodeValue(v)
		}
		chunk := server.Chunk{K: "row", Row: wire}
		if c := tuples[i].Cond; !c.IsTrue() {
			chunk.Cond = c.String()
		}
		if err == nil {
			err = enc.Encode(chunk)
		}
	}
	if err == nil {
		err = enc.Encode(server.Chunk{K: "done", Rows: int64(len(tuples))})
	}
	tr.end(s)
	if err != nil {
		return res, err
	}
	res.bytes = r.buf.Len()

	s = tr.begin("driver.decode", root, req)
	defer tr.end(s)
	res.hash = fnvOffset
	for _, line := range bytes.Split(bytes.TrimSuffix(r.buf.Bytes(), []byte("\n")), []byte("\n")) {
		var ch server.Chunk
		if err := json.Unmarshal(line, &ch); err != nil {
			return res, err
		}
		if ch.K != "row" {
			continue
		}
		row := make([]any, len(ch.Row))
		for i, v := range ch.Row {
			n, err := v.Native()
			if err != nil {
				return res, err
			}
			row[i] = n
			res.hash = hashValue(res.hash, n)
		}
		res.rows = append(res.rows, row)
	}
	res.hash = hashU64(res.hash, uint64(len(res.rows)))
	return res, nil
}

// write replays one events insert and returns how long the engine took.
func (r *reference) write(ctx context.Context, db *core.DB, id int64) (time.Duration, error) {
	vals, err := bind(eventArgs(id))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	_, err = r.insert.ExecContext(ctx, db, vals...)
	return time.Since(t0), err
}

// shape runs the operation once more under EXPLAIN ANALYZE (cached per
// distinct operation) to learn what the drain alone cannot show from
// outside: the share of operator time spent in sampling operators and how
// many rows the scans fed the plan per row it returned.
func (r *reference) shape(ctx context.Context, text string, o op) (planShape, error) {
	if ps, ok := r.plans[o]; ok {
		return ps, nil
	}
	root, err := sql.ExplainContext(ctx, r.db, "EXPLAIN ANALYZE "+text, ctable.Int(o.key))
	if err != nil {
		return planShape{}, err
	}
	var ps planShape
	var sampling time.Duration
	var walk func(n *sql.PlanNode)
	walk = func(n *sql.PlanNode) {
		if len(n.Children) == 0 {
			ps.examined += n.Rows
		}
		self := n.Elapsed
		for _, c := range n.Children {
			self -= c.Elapsed
			walk(c)
		}
		// Project and Aggregate always carry a sampler scope; only the ones
		// that drew samples spent their time sampling.
		if n.Sampling && n.Samples > 0 && self > 0 {
			sampling += self
		}
	}
	walk(root)
	ps.out = root.Rows
	if root.Elapsed > 0 {
		ps.samplerShare = float64(sampling) / float64(root.Elapsed)
	}
	r.plans[o] = ps
	return ps, nil
}
