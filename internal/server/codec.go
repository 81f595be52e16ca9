// The chunk codec: the one encoder and the one decoder of the NDJSON
// grammar documented on Chunk, Value and Error. pipd appends rows with it
// straight from engine cells, the client scans lines with it in place, and
// the three types' json.Marshaler/json.Unmarshaler methods delegate to it,
// so encoding/json (a stock client, the benchmark's replay) reads and
// writes the same bytes through the same code.
//
// The encoder reproduces encoding/json's output for the documented fields
// byte for byte (omitted zero payloads, the same string escaping); the
// decoder accepts what encoding/json accepts for them — any field order,
// unknown fields skipped but validated, case-folded keys, null as "leave
// unset", repeated keys merged the way encoding/json merges them. The
// differential and fuzz tests hold both to a tag-only shadow struct.

package server

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"unicode"
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

// maxDepth is the deepest nesting the decoder follows, encoding/json's own
// limit; it bounds the recursion a hostile line can cause.
const maxDepth = 10000

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

// objectKind selects which field set decoder.object is filling.
type objectKind uint8

const (
	skipObject objectKind = iota // unknown value: validate, keep nothing
	chunkObject
	cellObject
	errorObject
)

// The documented field names of each object, which resolveField matches keys to.
var (
	chunkFields = []string{"k", "row", "cond", "rows", "columns", "error"}
	cellFields  = []string{"t", "f", "i", "s", "b"}
	errorFields = []string{"code", "message", "line", "col", "source_line"}
)

// resolveField returns the one of names an object key denotes — exactly, or
// else under the case folding encoding/json applies to struct field names —
// and "" for an unknown key.
func resolveField(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if strings.EqualFold(string(key), n) {
			return n
		}
	}
	return ""
}

// decoder scans one line at a time into the fields below, in place: byte
// slices alias the line or scratch and are valid until the next decode. It
// is reused across the lines of a stream, so a warm decoder allocates
// nothing per row.
//
// cols and cells keep every slot written since the last reset, with ncols
// and ncells marking the current array's length, because encoding/json
// decodes a repeated array key into the slots of the earlier one.
type decoder struct {
	data    []byte
	pos     int
	scratch []byte

	k, cond []byte
	rows    int64
	cols    [][]byte
	ncols   int
	colsSet bool // "columns" held an array, possibly empty (not absent or null)
	cells   []rawCell
	ncells  int
	rowSet  bool // likewise for "row"

	hasErr bool // "error" held an object
	err    rawError
}

// rawError is a scanned error object, aliasing the line like rawCell.
type rawError struct {
	code, message, sourceLine []byte
	line, col                 int64
}

var (
	errChunkSyntax = errors.New("invalid JSON")
	errChunkType   = errors.New("JSON value has the wrong type for its field")
	errChunkDepth  = errors.New("JSON nested too deeply")
)

// decode scans data (surrounding whitespace, such as a line's newline,
// allowed) as one object of the given kind, or as null, which leaves every
// field unset. A chunk lands in the decoder's own fields, a cell in cell.
// A row line as pipd writes it takes canonicalRow's one forward pass;
// every other line, and one that strays from that shape at any byte, is
// scanned by the general grammar below.
func (d *decoder) decode(data []byte, kind objectKind, cell *rawCell) error {
	d.data, d.pos, d.scratch = data, 0, d.scratch[:0]
	d.k, d.cond, d.rows = nil, nil, 0
	d.cols, d.ncols, d.colsSet = d.cols[:0], 0, false
	d.cells, d.ncells, d.rowSet = d.cells[:0], 0, false
	d.hasErr, d.err = false, rawError{}

	if kind == chunkObject && d.canonicalRow() {
		return nil
	}
	d.skipSpace()
	if !d.null() {
		if d.peek() != '{' {
			return d.wrongType(0)
		}
		if err := d.object(1, kind, cell); err != nil {
			return err
		}
	}
	d.skipSpace()
	if d.pos != len(d.data) {
		return errChunkSyntax
	}
	return nil
}

func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) && isSpace(d.data[d.pos]) {
		d.pos++
	}
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\n' || c == '\t' || c == '\r')
}

// literal consumes lit at the cursor and reports whether it was there.
func (d *decoder) literal(lit string) bool {
	if hasAt(d.data, d.pos, lit) {
		d.pos += len(lit)
		return true
	}
	return false
}

// hasAt reports whether data holds lit at offset i; a negative i (the
// canonical scan's "no match") holds nothing.
func hasAt(data []byte, i int, lit string) bool {
	return i >= 0 && len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// ---------------------------------------------------------------------------
// Canonical rows
//
// Nearly every line a client reads is a row chunk exactly as appendChunk
// writes it. canonicalRow reads that shape in one forward pass, with no
// field-name dispatch; each step returns the offset past what it matched,
// or -1 once a byte differs, and every later step passes the -1 on.

// rowPrefix is how appendChunk begins a row chunk that has cells.
const rowPrefix = `{"k":"row","row":[`

// canonicalRow scans d.data as appendChunk's row chunk with no condition
// whose strings are all plain ASCII: rowPrefix, cells in appendValue's
// shape separated by commas, "]}", trailing whitespace. On such a line
// encoding/json's reading is the literal one, so it fills exactly the
// fields the general scan would. It reports false at the first byte that
// differs, having changed no field of d, so the general scan starts from
// decode's reset state.
func (d *decoder) canonicalRow() bool {
	data := d.data
	if !hasAt(data, 0, rowPrefix) {
		return false
	}
	cells, i := d.cells[:0], len(rowPrefix)
	for {
		cells = append(cells, rawCell{})
		if i = canonicalCell(data, i, &cells[len(cells)-1]); i < 0 {
			return false
		}
		if !hasAt(data, i, ",") {
			break
		}
		i++
	}
	if i = expect(data, i, "]}"); i < 0 {
		return false
	}
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	if i != len(data) {
		return false
	}
	d.k = data[len(`{"k":"`):len(`{"k":"row`)]
	d.cells, d.ncells, d.rowSet = cells, len(cells), true
	return true
}

// canonicalCell scans one cell at data[i:] in appendValue's shape — the
// tag, then "f", "i", "s" and "b" each at most once and in that order —
// into the zero cell c.
func canonicalCell(data []byte, i int, c *rawCell) int {
	c.t, i = plainString(data, expect(data, i, `{"t":`))
	if hasAt(data, i, `,"f":`) {
		c.f, i = plainString(data, i+len(`,"f":`))
	}
	if hasAt(data, i, `,"i":`) {
		c.i, i = canonicalInt(data, i+len(`,"i":`))
	}
	if hasAt(data, i, `,"s":`) {
		c.s, i = plainString(data, i+len(`,"s":`))
	}
	if hasAt(data, i, `,"b":true`) {
		c.b, i = true, i+len(`,"b":true`)
	}
	return expect(data, i, "}")
}

// expect matches lit at data[i:].
func expect(data []byte, i int, lit string) int {
	if hasAt(data, i, lit) {
		return i + len(lit)
	}
	return -1
}

// plainString matches a JSON string of printable ASCII with no quote or
// backslash inside, and returns its contents as a slice of data, as str
// would.
func plainString(data []byte, i int) ([]byte, int) {
	if !hasAt(data, i, `"`) {
		return nil, -1
	}
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return data[i+1 : j], j + 1
		case c < ' ' || c > '~' || c == '\\':
			return nil, -1
		}
	}
	return nil, -1
}

// canonicalInt matches a JSON integer (no fraction, exponent or leading
// zero) that fits an int64, and returns its value.
func canonicalInt(data []byte, i int) (int64, int) {
	if i < 0 {
		return 0, -1
	}
	neg := hasAt(data, i, "-")
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

// null consumes a JSON null, which every field treats as "leave unset".
func (d *decoder) null() bool { return d.literal("null") }

// object scans the object at the cursor, handing each member's value to the
// field set kind names. depth is this object's nesting level.
func (d *decoder) object(depth int, kind objectKind, cell *rawCell) error {
	if depth > maxDepth {
		return errChunkDepth
	}
	d.pos++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return errChunkSyntax
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if d.peek() != ':' {
			return errChunkSyntax
		}
		d.pos++
		d.skipSpace()
		switch kind {
		case chunkObject:
			err = d.chunkField(key, depth)
		case cellObject:
			err = d.cellField(key, cell, depth)
		case errorObject:
			err = d.errorField(key, depth)
		default:
			err = d.skipValue(depth)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return errChunkSyntax
		}
	}
}

// arrayKind selects what decoder.array does with each element.
type arrayKind uint8

const (
	skipArray arrayKind = iota // unknown value: validate, keep nothing
	columnsArray
	rowArray
)

// array scans the array at the cursor, handing each element to the slot
// kind names, and returns the element count. depth is the array's nesting
// level.
func (d *decoder) array(depth int, kind arrayKind) (int, error) {
	if d.peek() != '[' {
		return 0, d.wrongType(depth - 1)
	}
	if depth > maxDepth {
		return 0, errChunkDepth
	}
	d.pos++
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return 0, nil
	}
	for n := 0; ; {
		var err error
		switch kind {
		case columnsArray:
			if n == len(d.cols) {
				d.cols = append(d.cols, nil)
			}
			err = d.stringField(&d.cols[n], depth)
		case rowArray:
			if n == len(d.cells) {
				d.cells = append(d.cells, rawCell{})
			}
			switch {
			case d.null():
			case d.peek() == '{':
				err = d.object(depth+1, cellObject, &d.cells[n])
			default:
				err = d.wrongType(depth)
			}
		default:
			err = d.skipValue(depth)
		}
		if err != nil {
			return 0, err
		}
		n++
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return n, nil
		default:
			return 0, errChunkSyntax
		}
	}
}

func (d *decoder) chunkField(key []byte, depth int) error {
	switch resolveField(key, chunkFields) {
	case "k":
		return d.stringField(&d.k, depth)
	case "row":
		return d.rowField(depth)
	case "cond":
		return d.stringField(&d.cond, depth)
	case "rows":
		return d.intField(&d.rows, 64, depth)
	case "columns":
		return d.columnsField(depth)
	case "error":
		if d.null() {
			d.hasErr, d.err = false, rawError{}
			return nil
		}
		if d.peek() != '{' {
			return d.wrongType(depth)
		}
		d.hasErr = true
		return d.object(depth+1, errorObject, nil)
	}
	return d.skipValue(depth)
}

func (d *decoder) cellField(key []byte, c *rawCell, depth int) error {
	switch resolveField(key, cellFields) {
	case "t":
		return d.stringField(&c.t, depth)
	case "f":
		return d.stringField(&c.f, depth)
	case "i":
		return d.intField(&c.i, 64, depth)
	case "s":
		return d.stringField(&c.s, depth)
	case "b":
		switch {
		case d.null():
		case d.literal("true"):
			c.b = true
		case d.literal("false"):
			c.b = false
		default:
			return d.wrongType(depth)
		}
		return nil
	}
	return d.skipValue(depth)
}

func (d *decoder) errorField(key []byte, depth int) error {
	switch resolveField(key, errorFields) {
	case "code":
		return d.stringField(&d.err.code, depth)
	case "message":
		return d.stringField(&d.err.message, depth)
	case "line":
		return d.intField(&d.err.line, strconv.IntSize, depth)
	case "col":
		return d.intField(&d.err.col, strconv.IntSize, depth)
	case "source_line":
		return d.stringField(&d.err.sourceLine, depth)
	}
	return d.skipValue(depth)
}

// wrongType rejects a value that is not what its field takes. The value is
// still walked first, so input that is not JSON at all reports that.
func (d *decoder) wrongType(depth int) error {
	if err := d.skipValue(depth); err != nil {
		return err
	}
	return errChunkType
}

func (d *decoder) stringField(dst *[]byte, depth int) error {
	if d.null() {
		return nil
	}
	if d.peek() != '"' {
		return d.wrongType(depth)
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// intField takes what encoding/json takes for an integer field of the given
// width: a JSON number written without fraction or exponent that fits.
func (d *decoder) intField(dst *int64, bits, depth int) error {
	if d.null() {
		return nil
	}
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return d.wrongType(depth)
	}
	lit, integral, err := d.number()
	if err != nil {
		return err
	}
	if !integral {
		return errChunkType
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return errChunkType
	}
	*dst = n
	return nil
}

func (d *decoder) columnsField(depth int) error {
	if d.null() {
		d.cols, d.ncols, d.colsSet = d.cols[:0], 0, false
		return nil
	}
	n, err := d.array(depth+1, columnsArray)
	if err != nil {
		return err
	}
	if n == 0 {
		d.cols = d.cols[:0]
	}
	d.ncols, d.colsSet = n, true
	return nil
}

func (d *decoder) rowField(depth int) error {
	if d.null() {
		d.cells, d.ncells, d.rowSet = d.cells[:0], 0, false
		return nil
	}
	n, err := d.array(depth+1, rowArray)
	if err != nil {
		return err
	}
	if n == 0 {
		d.cells = d.cells[:0]
	}
	d.ncells, d.rowSet = n, true
	return nil
}

// skipValue validates and discards the JSON value at the cursor. depth is
// the nesting level of the container holding it.
func (d *decoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth+1, skipObject, nil)
	case c == '[':
		_, err := d.array(depth+1, skipArray)
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || (c >= '0' && c <= '9'):
		_, _, err := d.number()
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	}
	return errChunkSyntax
}

// number scans a JSON number literal and reports whether it is written as
// an integer (no fraction, no exponent).
func (d *decoder) number() (lit []byte, integral bool, err error) {
	data, i := d.data, d.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if i = skipDigits(data, i); i == d.pos || data[i-1] == '-' {
		return nil, false, errChunkSyntax
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		j := skipDigits(data, i+1)
		if j == i+1 {
			return nil, false, errChunkSyntax
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return nil, false, errChunkSyntax
		}
		i = j
	}
	lit, d.pos = data[d.pos:i], i
	return lit, integral, nil
}

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		i++
	}
	return i
}

// str scans the JSON string at the cursor and returns its contents. A
// string of plain ASCII — every kind tag, number and identifier on the wire
// — is returned as a slice of the line itself; anything else is unescaped
// into scratch.
func (d *decoder) str() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		c := d.data[i]
		if c == '"' {
			d.pos = i + 1
			return d.data[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return d.strSlow(start, i)
		}
	}
	return nil, errChunkSyntax
}

// strSlow finishes str for a string with escapes or non-ASCII bytes from
// offset i on, coercing the result to valid UTF-8 as encoding/json does: an
// invalid byte or an unpaired \u surrogate becomes U+FFFD.
func (d *decoder) strSlow(start, i int) ([]byte, error) {
	data := d.data
	off := len(d.scratch)
	out := append(d.scratch, data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos, d.scratch = i+1, out
			return out[off:len(out):len(out)], nil
		case c < ' ':
			return nil, errChunkSyntax
		case c == '\\':
			if i+1 >= len(data) {
				return nil, errChunkSyntax
			}
			i += 2
			switch e := data[i-1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					return nil, errChunkSyntax
				}
				i += 4
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						r2 = hex4(data[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, errChunkSyntax
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return nil, errChunkSyntax
}

// hex4 decodes the four hex digits of a \u escape, -1 if they are not there.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// ---------------------------------------------------------------------------
// Decoded line → wire types

// chunk copies the decoded line out as a Chunk.
func (d *decoder) chunk() Chunk {
	c := Chunk{K: internString(d.k), Columns: d.columns(), Cond: string(d.cond), Rows: d.rows, Error: d.wireError()}
	if d.rowSet {
		c.Row = make([]Value, d.ncells)
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
	cols := make([]string, d.ncols)
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

// wire copies the scanned error out as a wire Error.
func (e *rawError) wire() Error {
	return Error{Code: string(e.code), Message: string(e.message), Line: int(e.line), Col: int(e.col), SourceLine: string(e.sourceLine)}
}
