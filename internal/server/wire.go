// Package server is PIP's network front end: an HTTP/JSON query service
// (pipd) that multiplexes one shared probabilistic database across
// concurrent remote sessions, plus the client used by the remote
// database/sql backend, pipql -connect and the examples.
//
// # Wire protocol
//
// The protocol is plain HTTP + JSON so any language can speak it with a
// stock HTTP client. Endpoints (all under /v1 except the operational two):
//
//	POST   /v1/session        create a session; body {"settings": {...}}
//	DELETE /v1/session/{id}   close a session
//	POST   /v1/query          execute a statement, stream its result rows
//	GET    /v1/tables         list the shared catalog
//	GET    /healthz           liveness + uptime
//	GET    /metrics           Prometheus text-format counters
//
// On the wire a statement is its text: every statement — SELECT, DDL, DML,
// SET — is one POST /v1/query of {"session","query","args"}, parsed and
// planned by the server on every call, exactly as the write-ahead log and
// replicas identify it. There are no server-side statement ids to allocate,
// look up or release. A prepared statement of the remote database/sql
// driver is its text, sent again with each execution's arguments.
//
// The response is newline-delimited JSON (NDJSON) over a chunked HTTP body:
// one head chunk naming the result columns, one chunk per row, and a
// terminal done (with the row count) or err chunk — each line one JSON
// object of the Chunk grammar, which any JSON library reads. A statement
// without a result (DDL, DML, SET) answers a head with no columns and a
// done. Closing the request body cancels the server-side query through its
// context.
//
// Both ends of the stream run one hand-written codec for that grammar
// (codec.go): append-style encoders that write a row straight from the
// engine's cells into a buffer the request owns, and a one-pass scan that
// reads exactly what those encoders write, in place. Every other input — a
// foreign client's spelling of a chunk, a cell or an error — is decoded by
// encoding/json into the tagged twins below (oracleChunk, oracleValue,
// oracleError), so encoding/json defines what is accepted and what it means.
// Chunk, Value and Error implement json.Marshaler and json.Unmarshaler by
// calling the same functions, so encoding/json produces the bytes pipd does.
//
// Rows still stream as the engine produces them, but they are not flushed
// one by one. The handler owns the response buffer (it starts empty and
// grows on demand, so a one-row reply stays small) and flushes it by a fixed
// rule: the head at once, the first row at once, then whenever 32 KiB are
// buffered or 1 ms has passed since the last flush, and at the terminal
// chunk. Time to first row is therefore what a flush per row gave; a large
// result crosses the connection in a handful of writes instead of one per
// row; and a statement whose rows are slow to produce still delivers each as
// it appears, because by then the interval has long passed. A write or flush
// that fails ends the statement, counted as cancelled. Request bodies are
// read through a 64 MiB limit; a larger one is refused with 413 and the
// bad_request code.
//
// # Determinism across the wire
//
// Equal seeds give bit-identical results whether a query runs in-process
// or through a server: floats travel as shortest round-trip decimal
// strings (strconv 'g'/-1, lossless for every float64 including ±Inf and
// NaN), ints as int64, and the engine below the wire is the same. What
// does NOT cross the wire is symbolic state: random-variable equations and
// row conditions arrive as their rendered strings, sufficient for display
// and for the paper's expectation surface (which returns numbers), but not
// re-queryable — use the in-process API for programmatic symbolic work.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"pip"
	"pip/internal/ctable"
	"pip/internal/sql"
)

// Value is the wire form of one c-table cell. T tags the kind; exactly one
// payload field is meaningful:
//
//	"null"  SQL NULL (no payload)
//	"f"     float64 in F, as a shortest round-trip decimal string
//	"i"     int64 in I
//	"s"     string in S
//	"b"     bool in B
//	"e"     symbolic equation in S, rendered (e.g. "(x1 + 5)")
//
// Floats are strings, not JSON numbers, so ±Inf and NaN survive and every
// bit pattern round-trips exactly — the wire cannot perturb determinism.
//
// On the wire a cell is a JSON object keyed by the lower-cased field names,
// with a payload field omitted when it holds its zero value: {"t":"i"} is
// the integer 0. MarshalJSON and UnmarshalJSON are that grammar.
type Value struct {
	T string
	F string
	I int64
	S string
	B bool
}

// MarshalJSON implements json.Marshaler with the chunk codec.
func (v Value) MarshalJSON() ([]byte, error) {
	return appendValue(make([]byte, 0, 48), v), nil
}

// UnmarshalJSON implements json.Unmarshaler with the chunk codec. It
// replaces the receiver; a JSON null yields the zero Value, which is NULL.
func (v *Value) UnmarshalJSON(data []byte) error {
	var d decoder
	var c rawCell
	if atEnd(data, d.scanCell(data, 0, &c)) {
		*v = c.value()
		return nil
	}
	var o oracleValue
	if err := json.Unmarshal(data, &o); err != nil {
		return fmt.Errorf("server: malformed wire value: %w", err)
	}
	*v = Value(o)
	return nil
}

// EncodeValue converts an engine cell to its wire form.
func EncodeValue(v pip.Value) Value {
	switch v.Kind {
	case ctable.KindFloat:
		return Value{T: "f", F: strconv.FormatFloat(v.F, 'g', -1, 64)}
	case ctable.KindInt:
		return Value{T: "i", I: v.I}
	case ctable.KindString:
		return Value{T: "s", S: v.S}
	case ctable.KindBool:
		return Value{T: "b", B: v.B}
	case ctable.KindExpr:
		return Value{T: "e", S: v.E.String()}
	default:
		return Value{T: "null"}
	}
}

// Native unwraps a wire value into its natural Go representation: float64,
// int64, string, bool, nil — or the equation string for symbolic cells,
// mirroring how the local database/sql backend surfaces them.
func (v Value) Native() (any, error) {
	switch v.T {
	case "f":
		f, err := strconv.ParseFloat(v.F, 64)
		if err != nil {
			return nil, errWireFloat(v.F)
		}
		return f, nil
	case "i":
		return v.I, nil
	case "s":
		return v.S, nil
	case "b":
		return v.B, nil
	case "e":
		return v.S, nil
	case "null", "":
		return nil, nil
	default:
		return nil, errWireKind(v.T)
	}
}

// errWireFloat reports a float cell whose payload does not parse.
func errWireFloat(f string) error {
	return fmt.Errorf("server: malformed wire float %q", f)
}

// errWireKind reports a cell whose kind tag the grammar does not document.
func errWireKind(t string) error {
	return fmt.Errorf("server: unknown wire value kind %q", t)
}

// BindArg converts a Go argument (the remote driver's value set: int64,
// float64, bool, string, []byte, nil) to its wire form for transmission.
func BindArg(a any) (Value, error) {
	v, err := pip.BindValue(a)
	if err != nil {
		return Value{}, err
	}
	return EncodeValue(v), nil
}

// decodeArgs converts wire arguments back to engine bind values.
func decodeArgs(args []Value) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		n, err := a.Native()
		if err != nil {
			return nil, err
		}
		if a.T == "e" {
			return nil, fmt.Errorf("server: symbolic arguments cannot cross the wire (argument %d)", i+1)
		}
		out[i] = n
	}
	return out, nil
}

// SessionRequest creates a session. Settings apply before the session
// serves its first statement; names and validation are the session settings
// of docs/SQL.md (one table, internal/sampler/settings.go). Values arrive as
// JSON numbers and are parsed from their text, so a seed keeps all 64 bits.
type SessionRequest struct {
	Settings map[string]json.Number `json:"settings,omitempty"`
}

// SessionResponse returns the new session's identifier, which every
// statement-level request echoes back.
type SessionResponse struct {
	ID string `json:"id"`
}

// QueryRequest executes one statement: its Query text with Args bound to
// the ? placeholders in order.
type QueryRequest struct {
	Session string  `json:"session"`
	Query   string  `json:"query"`
	Args    []Value `json:"args,omitempty"`
}

// TableInfo describes one catalog table in a GET /v1/tables listing. The
// catalog is shared by every session, so the listing takes no session id.
type TableInfo struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
}

// Chunk is one NDJSON line of a streaming /v1/query response. K selects
// the variant:
//
//	"head"  Columns carries the result column names (empty for DDL/DML)
//	"row"   Row carries one result row's cells, Cond its c-table condition
//	        rendered as a string ("" for deterministic rows)
//	"done"  Rows carries the total row count; the stream is complete
//	"err"   Error carries the failure; no further chunks follow
//
// A well-formed stream is head, zero or more rows, then exactly one done
// or err.
//
// On the wire a chunk is a JSON object keyed by the lower-cased field names,
// with every field but k omitted when empty. MarshalJSON and UnmarshalJSON
// are the same functions pipd streams rows with and the client reads them
// with; the struct carries no field tags, and its tagged twin oracleChunk
// is what encoding/json reads a line into when the scan refuses it.
type Chunk struct {
	K       string
	Columns []string
	Row     []Value
	Cond    string
	Rows    int64
	Error   *Error
}

// MarshalJSON implements json.Marshaler with the chunk codec.
func (c Chunk) MarshalJSON() ([]byte, error) {
	return appendChunk(make([]byte, 0, 128), &c, nil), nil
}

// UnmarshalJSON implements json.Unmarshaler with the chunk codec. It
// replaces the receiver rather than merging into it.
func (c *Chunk) UnmarshalJSON(data []byte) error {
	d := decoder{cells: make([]rawCell, 0, 4)} // a narrow row's slots in one allocation
	if err := d.decode(data); err != nil {
		return fmt.Errorf("server: malformed chunk: %w", err)
	}
	*c = d.chunk()
	return nil
}

// Error codes carried by wire errors, so clients can reconstruct the typed
// error surface (pip.ErrParse and friends) without string matching.
const (
	CodeParse         = "parse"
	CodeUnknownTable  = "unknown_table"
	CodeUnknownColumn = "unknown_column"
	CodeBind          = "bind"
	CodeCancelled     = "cancelled"
	CodeSession       = "session"
	CodeBadRequest    = "bad_request"
	CodeReadOnly      = "read_only"
	CodeInternal      = "internal"
)

// ErrBadRequest is wrapped by client-input failures that carry no more
// specific code (malformed request bodies, invalid session settings), so
// they surface as HTTP 400 rather than a server fault.
var ErrBadRequest = errors.New("server: bad request")

// Error is the wire form of a failure. Parse errors carry their position
// and source line so remote clients render the same caret diagnostics as
// local ones.
//
// On the wire an error is the JSON object {"code","message","line","col",
// "source_line"}, the last three omitted when zero, both inside an err
// chunk and as the body of a non-200 response.
type Error struct {
	Code       string
	Message    string
	Line       int
	Col        int
	SourceLine string
}

// MarshalJSON implements json.Marshaler with the chunk codec.
func (e Error) MarshalJSON() ([]byte, error) {
	return appendError(make([]byte, 0, 128), &e), nil
}

// UnmarshalJSON implements json.Unmarshaler with the chunk codec. It
// replaces the receiver.
func (e *Error) UnmarshalJSON(data []byte) error {
	var d decoder
	var raw rawError
	if atEnd(data, d.scanError(data, 0, &raw)) {
		*e = raw.wire()
		return nil
	}
	var o oracleError
	if err := json.Unmarshal(data, &o); err != nil {
		return fmt.Errorf("server: malformed wire error: %w", err)
	}
	*e = Error(o)
	return nil
}

// The tagged twins: the grammar of Chunk, Value and Error written the naive
// way, as struct tags for encoding/json to interpret. The decoder hands them
// every line its scan refuses, and the tests hold the codec to them — byte
// for byte when encoding, value for value when decoding.
type (
	oracleValue struct {
		T string `json:"t"`
		F string `json:"f,omitempty"`
		I int64  `json:"i,omitempty"`
		S string `json:"s,omitempty"`
		B bool   `json:"b,omitempty"`
	}
	oracleError struct {
		Code       string `json:"code"`
		Message    string `json:"message"`
		Line       int    `json:"line,omitempty"`
		Col        int    `json:"col,omitempty"`
		SourceLine string `json:"source_line,omitempty"`
	}
	oracleChunk struct {
		K       string        `json:"k"`
		Columns []string      `json:"columns,omitempty"`
		Row     []oracleValue `json:"row,omitempty"`
		Cond    string        `json:"cond,omitempty"`
		Rows    int64         `json:"rows,omitempty"`
		Error   *oracleError  `json:"error,omitempty"`
	}
)

// ErrSessionUnknown is wrapped by failures naming a session the server
// does not know (never created, closed, or expired by the idle sweep).
var ErrSessionUnknown = errors.New("server: unknown session")

// EncodeError maps an engine error to its wire form.
func EncodeError(err error) *Error {
	we := &Error{Code: CodeInternal, Message: err.Error()}
	var pe *sql.ParseError
	switch {
	case errors.As(err, &pe):
		we.Code = CodeParse
		// The bare message, not err.Error(): the client rebuilds a
		// ParseError from Line/Col/Message, and ParseError.Error() adds
		// the position prefix itself.
		we.Message = pe.Msg
		we.Line, we.Col = pe.Line, pe.Col
		we.SourceLine = pe.SourceLine()
	case errors.Is(err, pip.ErrUnknownTable):
		we.Code = CodeUnknownTable
	case errors.Is(err, pip.ErrUnknownColumn):
		we.Code = CodeUnknownColumn
	case errors.Is(err, pip.ErrBind):
		we.Code = CodeBind
	case errors.Is(err, pip.ErrReadOnly):
		we.Code = CodeReadOnly
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		we.Code = CodeCancelled
	case errors.Is(err, ErrSessionUnknown):
		we.Code = CodeSession
	case errors.Is(err, ErrBadRequest):
		we.Code = CodeBadRequest
	}
	return we
}

// Err converts a wire error back to a typed engine error: the returned
// error matches the corresponding sentinel with errors.Is, and parse
// errors are genuine *sql.ParseError values (errors.As works), rebuilt
// from the transmitted position and source line.
func (e *Error) Err() error {
	if e == nil {
		return nil
	}
	switch e.Code {
	case CodeParse:
		if e.Line > 0 {
			// Rebuild a positioned ParseError from the transmitted
			// position. Src is padded with newlines so Line/Col and
			// SourceLine (hence caret rendering) behave exactly as they do
			// locally, including for multi-line statements.
			src := strings.Repeat("\n", e.Line-1) + e.SourceLine
			return &sql.ParseError{Src: src, Line: e.Line, Col: e.Col, Msg: e.Message}
		}
		return fmt.Errorf("%w: %s", pip.ErrParse, e.Message)
	case CodeUnknownTable:
		return remoteErr{sentinel: pip.ErrUnknownTable, msg: e.Message}
	case CodeUnknownColumn:
		return remoteErr{sentinel: pip.ErrUnknownColumn, msg: e.Message}
	case CodeBind:
		return remoteErr{sentinel: pip.ErrBind, msg: e.Message}
	case CodeReadOnly:
		return remoteErr{sentinel: pip.ErrReadOnly, msg: e.Message}
	case CodeCancelled:
		return remoteErr{sentinel: context.Canceled, msg: e.Message}
	case CodeSession:
		return remoteErr{sentinel: ErrSessionUnknown, msg: e.Message}
	case CodeBadRequest:
		return remoteErr{sentinel: ErrBadRequest, msg: e.Message}
	default:
		return errors.New(e.Message)
	}
}

// remoteErr carries a server-side message while matching the local typed
// sentinel, without double-prefixing the message (the server already
// rendered the full chain).
type remoteErr struct {
	sentinel error
	msg      string
}

// Error returns the server-rendered message.
func (e remoteErr) Error() string { return e.msg }

// Unwrap ties the error to its sentinel for errors.Is.
func (e remoteErr) Unwrap() error { return e.sentinel }
