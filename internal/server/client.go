package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client speaks the pipd wire protocol. It is the transport behind the
// remote database/sql backend (pip://host:port DSNs), pipql -connect, and
// the clientserver example; it is safe for concurrent use (the underlying
// http.Client pools connections).
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for a pipd server. addr is host:port or a
// full http:// base URL.
//
// The client's connections read through a buffer the size of the server's
// flush unit, so a unit of a result stream arrives in one read of the socket
// rather than one per 4 KiB; the buffer belongs to the connection, not the
// request, so a one-row reply does not pay for it.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.ReadBufferSize = streamFlushBytes
	return &Client{base: strings.TrimRight(addr, "/"), hc: &http.Client{Transport: tr}}
}

// post issues one JSON request; on a non-200 response the server's error
// body is decoded back into a typed engine error. The response body is
// returned open for the caller to consume.
func (c *Client) post(ctx context.Context, path string, reqBody any) (*http.Response, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reqBody); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, &buf)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer drainClose(resp.Body)
		var eb struct {
			Error *Error `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != nil {
			return nil, eb.Error.Err()
		}
		return nil, fmt.Errorf("server: %s returned HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

// drainClose reads a response body to EOF before closing so the
// http.Transport can return the connection to its keep-alive pool —
// otherwise every round trip would pay a fresh TCP handshake.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: healthz returned HTTP %d", resp.StatusCode)
	}
	return nil
}

// Tables lists the server's shared catalog.
func (c *Client) Tables(ctx context.Context) ([]TableInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/tables", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: tables returned HTTP %d", resp.StatusCode)
	}
	var out []TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Session creates a server-side session with the given initial settings
// (same keys and bounds as SQL SET; see SessionRequest) and returns a
// handle for executing statements in it.
func (c *Client) Session(ctx context.Context, settings map[string]json.Number) (*ClientSession, error) {
	resp, err := c.post(ctx, "/v1/session", SessionRequest{Settings: settings})
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var sr SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return &ClientSession{c: c, id: sr.ID}, nil
}

// ClientSession is a handle on one server-side session: statements
// executed through it share the session's settings (SET applies to this
// session only) and the server's shared catalog.
type ClientSession struct {
	c  *Client
	id string
}

// ID returns the server-assigned session identifier.
func (s *ClientSession) ID() string { return s.id }

// Close releases the server-side session.
func (s *ClientSession) Close(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, s.c.base+"/v1/session/"+s.id, nil)
	if err != nil {
		return err
	}
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return err
	}
	drainClose(resp.Body)
	return nil
}

// bindWire converts Go arguments to wire values.
func bindWire(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := BindArg(a)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Query executes a statement and streams its result rows. Cancelling ctx
// mid-iteration closes the HTTP stream, which cancels the server-side
// query down into the sampler.
func (s *ClientSession) Query(ctx context.Context, query string, args ...any) (*ClientRows, error) {
	wargs, err := bindWire(args)
	if err != nil {
		return nil, err
	}
	return s.c.stream(ctx, QueryRequest{Session: s.id, Query: query, Args: wargs})
}

// Exec executes a statement through the same /v1/query stream as Query,
// draining and discarding its result rows; it returns how many there were
// (0 for DDL/DML).
func (s *ClientSession) Exec(ctx context.Context, query string, args ...any) (int64, error) {
	rows, err := s.Query(ctx, query, args...)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.RowCount(), rows.Err()
}

// stream opens a /v1/query NDJSON stream and consumes its head chunk.
func (c *Client) stream(ctx context.Context, req QueryRequest) (*ClientRows, error) {
	resp, err := c.post(ctx, "/v1/query", req)
	if err != nil {
		return nil, err
	}
	rows := &ClientRows{ctx: ctx, body: resp.Body, rd: bufio.NewReader(resp.Body)}
	if err := rows.readChunk(); err != nil {
		rows.Close()
		return nil, err
	}
	if string(rows.dec.k) != "head" {
		rows.Close()
		return nil, fmt.Errorf("server: protocol error: expected head chunk, got %q", rows.dec.k)
	}
	rows.cols = rows.dec.columns()
	return rows, nil
}

// ClientRows streams a remote query's result rows, mirroring pip.Rows:
// Next advances, Native/Row/Cond expose the current row, Err reports the
// terminal error, Close releases the stream (cancelling the server-side
// query if it is still running). Each line is decoded in place by the chunk
// codec; a cell becomes a Go value only when asked for. Symbolic cells and
// row conditions are rendered strings.
type ClientRows struct {
	ctx     context.Context
	body    io.ReadCloser
	rd      *bufio.Reader
	long    []byte  // a line longer than rd's buffer, assembled here
	dec     decoder // the current line
	cols    []string
	row     []Value // Row's result for the current row, built on first use
	haveRow bool
	count   int64
	err     error
	done    bool
	closed  bool
}

// Columns returns the result column names (empty for DDL/DML).
func (r *ClientRows) Columns() []string { return r.cols }

// readLine returns the next line of the stream, newline included, valid
// until the following call. Lines are unbounded (equation strings can be
// long): one that outgrows the reader's buffer is assembled in r.long.
func (r *ClientRows) readLine() ([]byte, error) {
	line, err := r.rd.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	r.long = append(r.long[:0], line...)
	for err == bufio.ErrBufferFull {
		line, err = r.rd.ReadSlice('\n')
		r.long = append(r.long, line...)
	}
	return r.long, err
}

// readChunk reads one NDJSON line and decodes it into r.dec.
func (r *ClientRows) readChunk() error {
	line, err := r.readLine()
	if err != nil && (len(line) == 0 || err != io.EOF) {
		// Prefer the caller's cancellation over the transport's rendering
		// of the connection teardown it caused.
		if r.ctx != nil && r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		return err
	}
	if derr := r.dec.decode(line); derr != nil {
		if err == io.EOF {
			// A partial trailing line is a severed stream (server died
			// mid-chunk), not a protocol bug: surface it as truncation.
			return io.EOF
		}
		return fmt.Errorf("server: malformed chunk: %w", derr)
	}
	return nil
}

// Next advances to the next row, reporting false at the end of the stream
// or on error (distinguish with Err).
func (r *ClientRows) Next() bool {
	if r.done || r.closed || r.err != nil {
		return false
	}
	r.haveRow, r.row = false, r.row[:0]
	if err := r.readChunk(); err != nil {
		r.err = err
		return false
	}
	switch string(r.dec.k) {
	case "row":
		r.haveRow = true
		r.count++
		return true
	case "done":
		r.done = true
	case "err":
		r.done = true
		if r.err = r.dec.wireError().Err(); r.err == nil {
			r.err = fmt.Errorf("server: protocol error: err chunk without an error")
		}
	default:
		r.done = true
		r.err = fmt.Errorf("server: protocol error: unexpected chunk %q", r.dec.k)
	}
	return false
}

// NumCells returns the number of cells in the current row; 0 when no row
// is positioned.
func (r *ClientRows) NumCells() int {
	if !r.haveRow {
		return 0
	}
	return len(r.dec.cells)
}

// Native returns cell i of the current row as its natural Go value, exactly
// as Value.Native would (float64, int64, string, bool, nil, or the equation
// string of a symbolic cell) without building the Value first.
func (r *ClientRows) Native(i int) (any, error) {
	if i < 0 || i >= r.NumCells() {
		return nil, fmt.Errorf("server: no cell %d in the current row", i)
	}
	return r.dec.cells[i].native()
}

// Row returns the current row's wire values (valid until the next call to
// Next); nil when no row is positioned.
func (r *ClientRows) Row() []Value {
	if !r.haveRow {
		return nil
	}
	if len(r.row) == 0 {
		for i := range r.dec.cells {
			r.row = append(r.row, r.dec.cells[i].value())
		}
	}
	return r.row
}

// Cond returns the current row's rendered c-table condition, "" for
// deterministic rows.
func (r *ClientRows) Cond() string {
	if !r.haveRow {
		return ""
	}
	return string(r.dec.cond)
}

// RowCount returns the number of rows consumed so far.
func (r *ClientRows) RowCount() int64 { return r.count }

// Err returns the error that terminated iteration, if any; a cancelled
// context surfaces as ctx.Err(), typed engine failures as their sentinel
// (errors.Is(err, pip.ErrParse) etc.).
func (r *ClientRows) Err() error {
	if errors.Is(r.err, io.EOF) {
		// A stream that ends without a done chunk was severed mid-flight.
		return fmt.Errorf("server: result stream truncated")
	}
	return r.err
}

// Close releases the stream. After a fully consumed stream the body is
// drained so the connection returns to the keep-alive pool; closing
// before the done chunk instead tears down the HTTP request, which the
// server turns into context cancellation for the running query.
func (r *ClientRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.done {
		drainClose(r.body)
		return nil
	}
	return r.body.Close()
}
