// The chunk codec: the one encoder and the one-pass scan of the NDJSON
// grammar documented on Chunk, Value and Error. pipd appends rows with it
// straight from engine cells, the client reads lines with it in place, and
// the three types' json.Marshaler/json.Unmarshaler methods delegate to it,
// so encoding/json (a stock client, the benchmark's replay) reads and writes
// the same bytes.
//
// The encoder reproduces encoding/json's output for the tagged twins of
// wire.go byte for byte (omitted zero payloads, the same string escaping).
// The decoder has two steps. The scan reads exactly what the encoder writes
// — every head, row, done and err line and every cell pipd sends — aliasing
// the line, so a warm decoder allocates nothing. Anything else — another
// encoder's field order or spacing, case-folded, repeated or unknown keys,
// nulls, other escapes, invalid UTF-8, input that is not JSON — goes whole to
// encoding/json, decoding into the tagged twins, so what is accepted and what
// it means are encoding/json's. The differential and fuzz tests hold the scan
// to that fallback.

package server

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"pip"
	"pip/internal/ctable"
)

// ---------------------------------------------------------------------------
// Encoder

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's escaping:
// quote, backslash, control characters, <, > and &, U+2028/U+2029, and
// invalid UTF-8 as U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendValue appends one cell object: the kind tag, then each payload
// field that is not its zero value.
func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, `{"t":`...)
	dst = appendString(dst, v.T)
	if v.F != "" {
		dst = append(dst, `,"f":`...)
		dst = appendString(dst, v.F)
	}
	if v.I != 0 {
		dst = append(dst, `,"i":`...)
		dst = strconv.AppendInt(dst, v.I, 10)
	}
	if v.S != "" {
		dst = append(dst, `,"s":`...)
		dst = appendString(dst, v.S)
	}
	if v.B {
		dst = append(dst, `,"b":true`...)
	}
	return append(dst, '}')
}

// appendCell appends an engine cell in wire form. It is appendValue of
// EncodeValue, except that a float's digits go straight into dst: the
// string EncodeValue would build for them is the one allocation a
// deterministic row would otherwise cost.
func appendCell(dst []byte, v pip.Value) []byte {
	if v.Kind == ctable.KindFloat {
		dst = append(dst, `{"t":"f","f":"`...)
		dst = strconv.AppendFloat(dst, v.F, 'g', -1, 64)
		return append(dst, `"}`...)
	}
	return appendValue(dst, EncodeValue(v))
}

// appendError appends one error object.
func appendError(dst []byte, e *Error) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendString(dst, e.Code)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, e.Message)
	if e.Line != 0 {
		dst = append(dst, `,"line":`...)
		dst = strconv.AppendInt(dst, int64(e.Line), 10)
	}
	if e.Col != 0 {
		dst = append(dst, `,"col":`...)
		dst = strconv.AppendInt(dst, int64(e.Col), 10)
	}
	if e.SourceLine != "" {
		dst = append(dst, `,"source_line":`...)
		dst = appendString(dst, e.SourceLine)
	}
	return append(dst, '}')
}

// appendChunk appends one chunk object (no trailing newline). A row's cells
// come from c.Row, or from cells when the caller holds engine values —
// handleQuery's case, which then never builds a []Value.
func appendChunk(dst []byte, c *Chunk, cells []pip.Value) []byte {
	dst = append(dst, `{"k":`...)
	dst = appendString(dst, c.K)
	if len(c.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, col := range c.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, col)
		}
		dst = append(dst, ']')
	}
	if len(c.Row)+len(cells) > 0 {
		dst = append(dst, `,"row":`...)
		sep := byte('[')
		for _, v := range c.Row {
			dst = appendValue(append(dst, sep), v)
			sep = ','
		}
		for _, v := range cells {
			dst = appendCell(append(dst, sep), v)
			sep = ','
		}
		dst = append(dst, ']')
	}
	if c.Cond != "" {
		dst = append(dst, `,"cond":`...)
		dst = appendString(dst, c.Cond)
	}
	if c.Rows != 0 {
		dst = append(dst, `,"rows":`...)
		dst = strconv.AppendInt(dst, c.Rows, 10)
	}
	if c.Error != nil {
		dst = append(dst, `,"error":`...)
		dst = appendError(dst, c.Error)
	}
	return append(dst, '}')
}

// ---------------------------------------------------------------------------
// Decoder
//
// A line is read in two steps. The scan reads exactly what the encoder above
// writes, in one forward pass: appendChunk's fields in its order, each at
// most once, arrays non-empty, cells and errors in appendValue's and
// appendError's shape, strings as appendString escapes them. On such a line
// encoding/json's reading is the literal one, so the scan fills what
// encoding/json would. Each step returns the offset past what it matched, or
// -1 once a byte differs, and every later step passes the -1 on. A line the
// scan refuses goes whole to encoding/json, decoding into the tagged twins of
// wire.go.

// rawCell is one scanned row cell. The byte slices alias the decoded line
// (or the decoder's scratch buffer when the JSON string held escapes), so a
// row costs no allocation until a caller asks for one of its strings.
type rawCell struct {
	t, f, s []byte
	i       int64
	b       bool
}

// value copies the cell out as a wire Value.
func (c *rawCell) value() Value {
	return Value{T: internString(c.t), F: string(c.f), I: c.i, S: string(c.s), B: c.b}
}

// native is Value.Native read straight from the cell: a float is parsed
// from the line's own bytes, and no kind builds a Value first.
func (c *rawCell) native() (any, error) {
	switch string(c.t) {
	case "f":
		f, err := strconv.ParseFloat(string(c.f), 64)
		if err != nil {
			return nil, errWireFloat(string(c.f))
		}
		return f, nil
	case "i":
		return c.i, nil
	case "s", "e":
		return string(c.s), nil
	case "b":
		return c.b, nil
	case "null", "":
		return nil, nil
	}
	return nil, errWireKind(string(c.t))
}

// internString returns b as a string without allocating for the kind tags
// the grammar documents.
func internString(b []byte) string {
	for _, s := range internable {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

var internable = [...]string{"f", "i", "s", "row", "b", "e", "null", "head", "done", "err"}

// rawError is a scanned error object, aliasing the line like rawCell.
type rawError struct {
	code, message, sourceLine []byte
	line, col                 int64
}

// wire copies the scanned error out as a wire Error.
func (e *rawError) wire() Error {
	return Error{Code: string(e.code), Message: string(e.message), Line: int(e.line), Col: int(e.col), SourceLine: string(e.sourceLine)}
}

// decoder holds one decoded chunk line, in place: byte slices alias the line
// or scratch and are valid until the next decode. It is reused across the
// lines of a stream, so a warm decoder allocates nothing per line the scan
// takes.
type decoder struct {
	scratch []byte

	k, cond []byte
	rows    int64
	cols    [][]byte
	colsSet bool // "columns" held an array, possibly empty (not absent or null)
	cells   []rawCell
	rowSet  bool // likewise for "row"

	hasErr bool // "error" held an object
	err    rawError
}

// decode reads data (surrounding whitespace, such as a line's newline,
// allowed) as one chunk object, or as null, which leaves every field unset.
func (d *decoder) decode(data []byte) error {
	if d.scan(data) {
		return nil
	}
	var o oracleChunk
	if err := json.Unmarshal(data, &o); err != nil {
		return err
	}
	d.load(&o)
	return nil
}

// reset empties d for the next line, keeping its buffers.
func (d *decoder) reset() {
	d.scratch, d.k, d.cond, d.rows = d.scratch[:0], nil, nil, 0
	d.cols, d.colsSet, d.cells, d.rowSet = d.cols[:0], false, d.cells[:0], false
	d.hasErr, d.err = false, rawError{}
}

// load fills d from a chunk encoding/json decoded.
func (d *decoder) load(o *oracleChunk) {
	d.reset()
	d.k, d.cond, d.rows = []byte(o.K), []byte(o.Cond), o.Rows
	d.colsSet, d.rowSet = o.Columns != nil, o.Row != nil
	for _, c := range o.Columns {
		d.cols = append(d.cols, []byte(c))
	}
	for _, v := range o.Row {
		d.cells = append(d.cells, rawCell{t: []byte(v.T), f: []byte(v.F), i: v.I, s: []byte(v.S), b: v.B})
	}
	if e := o.Error; e != nil {
		d.hasErr = true
		d.err = rawError{code: []byte(e.Code), message: []byte(e.Message), line: int64(e.Line), col: int64(e.Col), sourceLine: []byte(e.SourceLine)}
	}
}

// scan reads data as appendChunk writes a chunk, followed by whitespace
// only: {"k":…, then "columns", "row", "cond", "rows" and "error", each
// optional. It reports false at the first byte that differs.
func (d *decoder) scan(data []byte) bool {
	d.reset()
	var i, j int
	d.k, i = d.scanString(data, expect(data, 0, `{"k":`))
	if j = member(data, i, "columns"); at(data, j, '[') {
		for more := true; more; more = at(data, j, ',') {
			var col []byte
			col, j = d.scanString(data, j+1)
			d.cols = append(d.cols, col)
		}
		d.colsSet = true
		i = expect(data, j, "]")
	}
	if j = member(data, i, "row"); at(data, j, '[') {
		cells := d.cells
		for more := true; more; more = at(data, j, ',') {
			cells = append(cells, rawCell{})
			j = d.scanCell(data, j+1, &cells[len(cells)-1])
		}
		d.cells, d.rowSet = cells, true
		i = expect(data, j, "]")
	}
	if j = member(data, i, "cond"); j > 0 {
		d.cond, i = d.scanString(data, j)
	}
	if j = member(data, i, "rows"); j > 0 {
		d.rows, i = scanInt(data, j)
	}
	if j = member(data, i, "error"); j > 0 {
		d.hasErr = true
		i = d.scanError(data, j, &d.err)
	}
	return atEnd(data, expect(data, i, "}"))
}

// scanCell scans one cell at data[i:] in appendValue's shape — the tag, then
// "f", "i", "s" and "b" each at most once and in that order — into the zero
// cell c.
func (d *decoder) scanCell(data []byte, i int, c *rawCell) int {
	j := 0
	c.t, i = d.scanString(data, expect(data, i, `{"t":`))
	if j = member(data, i, "f"); j > 0 {
		c.f, i = d.scanString(data, j)
	}
	if j = member(data, i, "i"); j > 0 {
		c.i, i = scanInt(data, j)
	}
	if j = member(data, i, "s"); j > 0 {
		c.s, i = d.scanString(data, j)
	}
	if j = member(data, i, "b"); hasAt(data, j, "true") {
		c.b, i = true, j+len("true")
	}
	return expect(data, i, "}")
}

// scanError scans one error object at data[i:] in appendError's shape into
// the zero error e.
func (d *decoder) scanError(data []byte, i int, e *rawError) int {
	j := 0
	e.code, i = d.scanString(data, expect(data, i, `{"code":`))
	e.message, i = d.scanString(data, member(data, i, "message"))
	if j = member(data, i, "line"); j > 0 {
		e.line, i = scanInt(data, j)
	}
	if j = member(data, i, "col"); j > 0 {
		e.col, i = scanInt(data, j)
	}
	if j = member(data, i, "source_line"); j > 0 {
		e.sourceLine, i = d.scanString(data, j)
	}
	if int64(int(e.line)) != e.line || int64(int(e.col)) != e.col {
		return -1 // too wide for Error's int fields
	}
	return expect(data, i, "}")
}

// scanString scans the JSON string at data[i:] and returns its contents. A
// string of plain ASCII — every kind tag, number and identifier on the wire —
// is returned as a slice of data; anything else is unescaped into scratch.
func (d *decoder) scanString(data []byte, i int) ([]byte, int) {
	if !at(data, i, '"') {
		return nil, -1
	}
	start := i + 1
	for j := start; j < len(data); j++ {
		c := data[j]
		if c == '"' {
			return data[start:j], j + 1
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return d.scanStringSlow(data, start, j)
		}
	}
	return nil, -1
}

// scanStringSlow finishes scanString from offset i on, taking only what
// appendString writes: valid UTF-8, and the escapes \" \\ \b \f \n \r \t and
// \u of a code point that is not a surrogate.
func (d *decoder) scanStringSlow(data []byte, start, i int) ([]byte, int) {
	off := len(d.scratch)
	out := append(d.scratch, data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.scratch = out
			return out[off:len(out):len(out)], i + 1
		case c < ' ':
			return nil, -1
		case c == '\\' && i+1 < len(data):
			e := data[i+1]
			switch e {
			case '"', '\\':
			case 'b':
				e = '\b'
			case 'f':
				e = '\f'
			case 'n':
				e = '\n'
			case 'r':
				e = '\r'
			case 't':
				e = '\t'
			case 'u':
				if len(data) < i+6 {
					return nil, -1
				}
				r, err := strconv.ParseUint(string(data[i+2:i+6]), 16, 16)
				if err != nil || utf16.IsSurrogate(rune(r)) {
					return nil, -1
				}
				out = utf8.AppendRune(out, rune(r))
				i += 6
				continue
			default:
				return nil, -1
			}
			out = append(out, e)
			i += 2
		case c == '\\':
			return nil, -1
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, -1
			}
			out = append(out, data[i:i+size]...)
			i += size
		}
	}
	return nil, -1
}

// scanInt scans a JSON integer (no fraction, exponent or leading zero) that
// fits an int64, and returns its value.
func scanInt(data []byte, i int) (int64, int) {
	if i < 0 {
		return 0, -1
	}
	neg := at(data, i, '-')
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	// Nineteen digits cannot overflow u; the range check does the rest.
	switch n := i - start; {
	case n == 0 || n > 19 || (n > 1 && data[start] == '0'):
		return 0, -1
	case neg && u <= 1<<63:
		return -int64(u), i
	case !neg && u <= math.MaxInt64:
		return int64(u), i
	}
	return 0, -1
}

// member returns the offset past the member key `,"name":` at data[i:], or
// -1. The members that may follow one another differ in the name's first
// letter, so that is compared first.
func member(data []byte, i int, name string) int {
	j := i + len(`,"`) + len(name)
	if i < 0 || len(data) < j+2 || data[i+2] != name[0] || data[i] != ',' || data[i+1] != '"' ||
		data[j] != '"' || data[j+1] != ':' || string(data[i+3:j]) != name[1:] {
		return -1
	}
	return j + 2
}

// at reports whether data holds c at offset i; a negative i (a step's "no
// match") holds nothing.
func at(data []byte, i int, c byte) bool {
	return i >= 0 && i < len(data) && data[i] == c
}

// hasAt reports whether data holds lit at offset i.
func hasAt(data []byte, i int, lit string) bool {
	return i >= 0 && len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// expect matches lit at data[i:].
func expect(data []byte, i int, lit string) int {
	if hasAt(data, i, lit) {
		return i + len(lit)
	}
	return -1
}

// atEnd reports whether only JSON whitespace follows offset i.
func atEnd(data []byte, i int) bool {
	if i < 0 {
		return false
	}
	for ; i < len(data); i++ {
		if c := data[i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Decoded line → wire types

// chunk copies the decoded line out as a Chunk.
func (d *decoder) chunk() Chunk {
	c := Chunk{K: internString(d.k), Columns: d.columns(), Cond: string(d.cond), Rows: d.rows, Error: d.wireError()}
	if d.rowSet {
		c.Row = make([]Value, len(d.cells))
		for i := range c.Row {
			c.Row[i] = d.cells[i].value()
		}
	}
	return c
}

// columns copies the decoded column names out; nil when the line had none.
func (d *decoder) columns() []string {
	if !d.colsSet {
		return nil
	}
	cols := make([]string, len(d.cols))
	for i := range cols {
		cols[i] = string(d.cols[i])
	}
	return cols
}

// wireError copies the decoded error object out; nil when the line had none.
func (d *decoder) wireError() *Error {
	if !d.hasErr {
		return nil
	}
	e := d.err.wire()
	return &e
}
