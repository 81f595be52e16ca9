package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"pip"
	"pip/internal/ctable"
)

// toOracle converts a chunk to its shadow, preserving nil-ness.
func toOracle(c Chunk) oracleChunk {
	o := oracleChunk{K: c.K, Columns: c.Columns, Cond: c.Cond, Rows: c.Rows, Error: (*oracleError)(c.Error)}
	if c.Row != nil {
		o.Row = make([]oracleValue, len(c.Row))
		for i, v := range c.Row {
			o.Row[i] = oracleValue(v)
		}
	}
	return o
}

// oracleEncode is json.Marshal of the tagged twin.
func oracleEncode(t testing.TB, c Chunk) []byte {
	t.Helper()
	b, err := json.Marshal(toOracle(c))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// oracleDecode is json.Unmarshal into the tagged twin.
func oracleDecode(line []byte) (oracleChunk, error) {
	var o oracleChunk
	err := json.Unmarshal(line, &o)
	return o, err
}

// jsonMaxDepth is the deepest nesting encoding/json decodes.
const jsonMaxDepth = 10000

var (
	nastyFloats = []float64{
		0, math.Copysign(0, -1), 1, -1, 1.0 / 3.0, math.Pi, 1e-323, 5e-324, 2.2250738585072014e-308,
		2.225073858507201e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 95.00000000000001, -123456789.987654321, 1e21, 1e-7, 123456789012345678,
	}
	nastyInts    = []int64{0, 1, -1, 255, 256, math.MaxInt64, math.MinInt64, math.MaxInt32, math.MinInt32, 1 << 53}
	nastyStrings = []string{
		"", "x", "Joe", "FRANCE", "a b", `"quoted"`, `back\slash`, "tab\there", "line\nbreak", "\r\n", "\x00\x01\x1f", "\x7f",
		"<script>&amp;</script>", "café", "日本語", "😀 non-BMP 𝒳", "  ", "\xff\xfe invalid", "\xc3", "\xed\xa0\x80 surrogate bytes",
		"(x1 + 5)", "((x3 * 1.08) > 250) AND (x4 <= 7)", strings.Repeat("long ", 2000), `{"k":"row"}`, "null", "\\u0041",
	}
)

// randString draws a nasty string or random bytes.
func randString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return nastyStrings[rng.Intn(len(nastyStrings))]
	}
	b := make([]byte, rng.Intn(24))
	rng.Read(b)
	return string(b)
}

// randCell draws an engine cell of any deterministic kind.
func randCell(rng *rand.Rand) pip.Value {
	switch rng.Intn(6) {
	case 0:
		return pip.Value{}
	case 1:
		if rng.Intn(2) == 0 {
			return pip.Float(nastyFloats[rng.Intn(len(nastyFloats))])
		}
		return pip.Float(math.Float64frombits(rng.Uint64()))
	case 2:
		if rng.Intn(2) == 0 {
			return pip.Int(nastyInts[rng.Intn(len(nastyInts))])
		}
		return pip.Int(int64(rng.Uint64()))
	case 3:
		return ctable.Bool(rng.Intn(2) == 0)
	default:
		return ctable.String_(randString(rng))
	}
}

// randChunk draws one chunk of any of the four kinds, plus, for rows, the
// engine cells it was encoded from.
func randChunk(rng *rand.Rand) (Chunk, []pip.Value) {
	switch rng.Intn(8) {
	case 0:
		c := Chunk{K: "head"}
		for i := rng.Intn(5); i > 0; i-- {
			c.Columns = append(c.Columns, randString(rng))
		}
		return c, nil
	case 1:
		return Chunk{K: "done", Rows: nastyInts[rng.Intn(len(nastyInts))]}, nil
	case 2:
		e := &Error{Code: CodeInternal, Message: randString(rng)}
		if rng.Intn(2) == 0 {
			e.Code, e.Line, e.Col, e.SourceLine = CodeParse, 1+rng.Intn(40), 1+rng.Intn(200), randString(rng)
		}
		return Chunk{K: "err", Error: e}, nil
	default:
		c := Chunk{K: "row"}
		cells := make([]pip.Value, 1+rng.Intn(6))
		for i := range cells {
			cells[i] = randCell(rng)
			c.Row = append(c.Row, EncodeValue(cells[i]))
		}
		if rng.Intn(3) == 0 {
			// A symbolic cell and a row condition are rendered strings by
			// the time they reach the codec.
			c.Row = append(c.Row, Value{T: "e", S: randString(rng)})
			c.Cond = randString(rng)
			cells = nil
		}
		return c, cells
	}
}

// sameNative compares two decoded cells, floats by bit pattern (any NaN
// equals any NaN: the wire spells them all "NaN").
func sameNative(a, b any) bool {
	fa, oka := a.(float64)
	fb, okb := b.(float64)
	if oka && okb {
		return math.Float64bits(fa) == math.Float64bits(fb) || (math.IsNaN(fa) && math.IsNaN(fb))
	}
	return reflect.DeepEqual(a, b)
}

// TestCodecDifferential holds the codec to the oracle over random chunks:
// both encoders produce the same bytes (so either decoder reads either
// output alike), both decoders produce the same chunk, and every cell
// survives as the Go value it started as.
func TestCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var d decoder
	for n := 0; n < 5000; n++ {
		c, cells := randChunk(rng)
		want := oracleEncode(t, c)

		got := appendChunk(nil, &c, nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("encode differs from the oracle\nchunk  %+v\ncodec  %s\noracle %s", c, got, want)
		}
		if cells != nil {
			// The engine path: same bytes without the []Value.
			if got := appendChunk(nil, &Chunk{K: "row", Cond: c.Cond}, cells); !bytes.Equal(got, want) {
				t.Fatalf("engine-cell encode differs from the oracle\ncodec  %s\noracle %s", got, want)
			}
		}
		if viaJSON, err := json.Marshal(c); err != nil || !bytes.Equal(viaJSON, want) {
			t.Fatalf("json.Marshal(Chunk) = %s, %v; oracle %s", viaJSON, err, want)
		}

		// oracle-decode(new-encode(x)) == oracle-decode(oracle-encode(x)).
		od1, err1 := oracleDecode(got)
		od2, err2 := oracleDecode(want)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(od1, od2) {
			t.Fatalf("oracle reads the two encodings differently: %+v (%v) vs %+v (%v)", od1, err1, od2, err2)
		}

		// new-decode(oracle-encode(x)) == x, up to what omitempty erases.
		if err := d.decode(want); err != nil {
			t.Fatalf("decode %s: %v", want, err)
		}
		if back := toOracle(d.chunk()); !reflect.DeepEqual(back, od2) {
			t.Fatalf("decode differs from the oracle on %s\ncodec  %+v\noracle %+v", want, back, od2)
		}
		var viaJSON Chunk
		if err := json.Unmarshal(want, &viaJSON); err != nil || !reflect.DeepEqual(viaJSON, d.chunk()) {
			t.Fatalf("json.Unmarshal into Chunk = %+v, %v; decoder %+v", viaJSON, err, d.chunk())
		}
		for i, cell := range cells {
			// What the cell started as — except that a string that is not
			// UTF-8 has its bad bytes replaced on the way out, by the oracle
			// as by the codec, so there the oracle's reading is the target.
			orig, err := Value(od2.Row[i]).Native()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case cell.Kind == ctable.KindFloat:
				orig = cell.F
			case cell.Kind == ctable.KindString && utf8.ValidString(cell.S):
				orig = cell.S
			}
			back, err := d.cells[i].native()
			if err != nil || !sameNative(back, orig) {
				t.Fatalf("cell %d of %s decoded to %#v (%v), want %#v", i, want, back, err, orig)
			}
		}
	}
}

// TestCodecSymbolicRows runs real symbolic rows with real conditions — the
// engine's own Expr cells and c-table clauses — through the engine-cell
// encoder and back.
func TestCodecSymbolicRows(t *testing.T) {
	db := pip.Open(pip.Options{Seed: 7})
	ctx := context.Background()
	for _, s := range demoStatements {
		if err := db.ExecContext(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.QueryContext(ctx, "SELECT o.cust, o.price * 1.08, s.duration FROM orders o, shipping s WHERE o.shipto = s.dest AND o.price > 95 AND s.duration >= 3")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var d decoder
	seen := 0
	for rows.Next() {
		c := Chunk{K: "row", Cond: rows.Cond().String()}
		for _, v := range rows.Values() {
			c.Row = append(c.Row, EncodeValue(v))
		}
		got := appendChunk(nil, &Chunk{K: "row", Cond: c.Cond}, rows.Values())
		if want := oracleEncode(t, c); !bytes.Equal(got, want) {
			t.Fatalf("codec  %s\noracle %s", got, want)
		}
		if err := d.decode(got); err != nil {
			t.Fatal(err)
		}
		if back := d.chunk(); !reflect.DeepEqual(back, c) {
			t.Fatalf("round trip %+v, want %+v", back, c)
		}
		if c.Row[1].T != "e" || c.Cond == "" {
			t.Fatalf("fixture is not symbolic: %+v", c)
		}
		seen++
	}
	if err := rows.Err(); err != nil || seen == 0 {
		t.Fatalf("rows = %d, err = %v", seen, err)
	}
}

// TestCodecDecodeGrammar pins the decoder's behaviour on the inputs a
// generator of well-formed chunks never produces: other field orders,
// unknown fields, escapes, \u pairs, nulls, repeated and case-folded keys —
// each must decode exactly as encoding/json decodes it — and the lines it
// must reject.
func TestCodecDecodeGrammar(t *testing.T) {
	accept := []string{
		`{"row":[{"f":"1.5","t":"f"},{"s":"x","t":"s"}],"k":"row"}`,
		` { "k" : "row" , "row" : [ { "t" : "i" , "i" : -42 } ] } ` + "\r\n",
		`{"k":"row","row":[{"t":"i"},{"t":"b"},{"t":"s"},{"t":"null"},{"t":"f"}]}`,
		`{"k":"row","future":{"a":[1,2.5e-3,{"b":null}],"c":"😀"},"row":[{"t":"b","b":true,"x":[]}]}`,
		`{"k":"row","row":[{"t":"s","s":"A\n\t\"\\\/\b\f\r"}],"cond":"😀 \ud83d \ude00 \ud83dx é"}`,
		`{"k":"row","row":[{"t":"s","s":"raw ` + "\xff\xc3" + ` bytes"}]}`,
		`{"k":"row","row":[null,{"t":"i","i":7}],"cond":null,"rows":null}`,
		`{"k":"head","columns":["a",null,"c"]}`,
		`{"k":"head","columns":[]}`,
		`{"k":"head","columns":null,"row":null,"error":null}`,
		`{"k":"row","row":[]}`,
		`{"K":"row","ROW":[{"T":"i","I":3}],"Cond":"c","ROWS":2}`,
		"{\"K\":\"kelvin\",\"rowſ\":5,\"row\":[{\"ſ\":\"long s\"}]}",
		`{"k":"a","k":"b","rows":1,"rows":2}`,
		`{"row":[{"t":"i","i":1},{"t":"s","s":"x"}],"row":[{"t":"f"}]}`,
		`{"row":[{"t":"i","i":1},{"t":"s","s":"x"}],"row":[{"t":"f"}],"row":[null,{"f":"2"}]}`,
		`{"row":[{"t":"i","i":1}],"row":[],"row":[{"s":"y"}]}`,
		`{"columns":["a","b"],"columns":[null],"columns":[null,null,null]}`,
		`{"error":{"code":"parse","message":"m","line":3},"error":{"col":9}}`,
		`{"k":"err","error":{"code":"parse","message":"near \"x\"","line":2,"col":14,"source_line":"SELECT x"}}`,
		`{"k":"err","error":{}}`,
		`{"k":"done","rows":-0}`,
		`{"k":"done","rows":9223372036854775807}`,
		`null`,
		`{}`,
	}
	for _, line := range accept {
		want, err := oracleDecode([]byte(line))
		if err != nil {
			t.Fatalf("oracle rejects %s: %v", line, err)
		}
		var d decoder
		if err := d.decode([]byte(line)); err != nil {
			t.Errorf("decode %s: %v", line, err)
			continue
		}
		if got := toOracle(d.chunk()); !reflect.DeepEqual(got, want) {
			t.Errorf("decode %s\ncodec  %+v\noracle %+v", line, got, want)
		}
	}
	reject := []string{
		``, ` `, `{`, `{"k":"row"`, `{"k":"row","row":[{"t":"f","f":"1.5"}`, `{"k":"row"}x`, `{"k":"row"}{}`,
		`[]`, `5`, `"row"`, `true`, `nul`, `{"k":5}`, `{"k":"row","row":{}}`, `{"k":"row","row":[5]}`, `{"k":"row","row":[[]]}`,
		`{"rows":1.0}`, `{"rows":1e2}`, `{"rows":"1"}`, `{"rows":9223372036854775808}`, `{"rows":01}`, `{"rows":-}`, `{"rows":+1}`,
		`{"row":[{"b":1}]}`, `{"row":[{"b":"true"}]}`, `{"row":[{"i":true}]}`, `{"row":[{"t":"s","s":"a` + "\n" + `b"}]}`,
		`{"k":"\x"}`, `{"k":"\u12"}`, `{"k":"\u12g4"}`, `{"k":'row'}`, `{k:"row"}`, `{"k":"row",}`, `{"k" "row"}`, `{"row":[1,]}`,
		`{"x":tru}`, `{"x":.5}`, `{"x":1.}`, `{"x":1e}`, `{"x":-}`, `{"x":[}`, `{"columns":["a",5]}`, `{"columns":"a"}`, `{"error":[]}`,
		`{"error":{"line":"3"}}`, `{"error":{"code":1}}`,
		strings.Repeat("[", jsonMaxDepth+5),
		`{"x":` + strings.Repeat("[", jsonMaxDepth) + strings.Repeat("]", jsonMaxDepth) + `}`,
	}
	for _, line := range reject {
		if _, err := oracleDecode([]byte(line)); err == nil {
			t.Fatalf("oracle accepts %.80s", line)
		}
		var d decoder
		if err := d.decode([]byte(line)); err == nil {
			t.Errorf("decode accepted %.80s as %+v", line, d.chunk())
		}
	}
	// The deepest nesting the oracle takes is taken here too.
	deep := `{"x":` + strings.Repeat("[", jsonMaxDepth-1) + strings.Repeat("]", jsonMaxDepth-1) + `}`
	if _, err := oracleDecode([]byte(deep)); err != nil {
		t.Fatalf("oracle rejects depth %d: %v", jsonMaxDepth, err)
	}
	var d decoder
	if err := d.decode([]byte(deep)); err != nil {
		t.Errorf("decode rejects depth %d: %v", jsonMaxDepth, err)
	}
}

// FuzzChunkDecode feeds arbitrary lines to the decoder: it never panics, it
// accepts exactly the lines encoding/json accepts into the tagged twin,
// and on those it yields an equal chunk (unknown fields ignored by both).
// The json.Unmarshaler method and the in-place cell accessors must agree
// with it.
func FuzzChunkDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		c, _ := randChunk(rng)
		line := appendChunk(nil, &c, nil)
		f.Add(line)
		f.Add(line[:rng.Intn(len(line))]) // a severed stream's last line
	}
	// Lines one step off the shapes the encoder writes, each on a side of
	// the point where the scan hands the line to encoding/json.
	for _, line := range canonicalNearMisses {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want, oerr := oracleDecode(line)
		var d decoder
		derr := d.decode(line)
		if (oerr == nil) != (derr == nil) {
			t.Fatalf("oracle error %v, decoder error %v", oerr, derr)
		}
		var viaJSON Chunk
		jerr := json.Unmarshal(line, &viaJSON)
		if (jerr == nil) != (derr == nil) {
			t.Fatalf("json.Unmarshal into Chunk: %v, decoder error %v", jerr, derr)
		}
		if derr != nil {
			return
		}
		got := d.chunk()
		if !reflect.DeepEqual(toOracle(got), want) {
			t.Fatalf("decoder %+v\noracle  %+v", toOracle(got), want)
		}
		if !reflect.DeepEqual(viaJSON, got) {
			t.Fatalf("json.Unmarshal into Chunk %+v, decoder %+v", viaJSON, got)
		}
		for i := range d.cells {
			n, nerr := d.cells[i].native()
			vn, verr := got.Row[i].Native()
			if (nerr == nil) != (verr == nil) || !sameNative(n, vn) {
				t.Fatalf("cell %d: in-place %#v (%v), via Value %#v (%v)", i, n, nerr, vn, verr)
			}
		}
		// What it decoded, it encodes to something that decodes the same.
		again, err := oracleDecode(appendChunk(nil, &got, nil))
		if err != nil || !reflect.DeepEqual(normalize(again), normalize(want)) {
			t.Fatalf("re-encoded chunk reads back as %+v (%v), want %+v", again, err, want)
		}
	})
}

// fallbackLines are lines the encoder never writes, each one step from a
// shape it does: the scan must refuse them all, and encoding/json decides.
var fallbackLines = []string{
	`{"k":"row","row":[{"t":"s","s":"\ud83d\ude00"}]}`,
	`{"k":"row","row":[{"t":"s","s":"\ud83d"}],"cond":"x \ud83d"}`,
	`{"k":"row","row":[{"t":"s","s":"\ude00\ud83d"}]}`,
	`{"k":"row","row":[{"t":"s","s":"a\/b"}]}`,
	`{"k":"row","row":[{"t":"s","s":"bad ` + "\xff\xc3" + `"}]}`,
	`{"k":"row","row":[{"t":"s","s":"` + "\xed\xa0\x80" + `"}]}`,
	`{"k":"row","row":[{"s":"x","t":"s"}]}`,
	`{"k":"head","columns":[]}`,
	`{"k":"err","error":{"message":"near \"x\"","code":"parse","col":14,"line":2}}`,
	`{"k":"err","error":{"code":"internal","message":"m","col":1,"line":2}}`,
	`{"error":{"code":"internal","message":"m"},"k":"err"}`,
	`{"k":"row","row":[{"t":"b","b":false}]}`,
	`{"k":"row","row":[{"f":"1.5","t":"f"}]}`,
	`{"k":"row","row":[null]}`,
	`{"k":"row","row":[]}`,
	`{"k":"done","rows":1.0}`,
}

// canonicalNearMisses are lines that start in a shape the encoder writes and
// leave it — some still valid JSON that encoding/json must read, some not —
// and the fallback lines.
var canonicalNearMisses = append([]string{
	`{"k":"row","row":[{"t":"i","i":1},{"t":"f","f":"2.5"}]}` + "\n",
	`{"k":"row","row":[{"t":"i","i":1},{"t":"f","f":"2.5"}]} ` + "\r\n\t",
	`{"k":"row","row":[{"t":"i","i":1},{"t":"f","f":"2.5"}]}x`,
	`{"k":"row","row":[{"t":"i","i":1},{"t":"f","f":"2.5"}],"cond":"x1 > 2"}`,
	`{"k":"row","row":[{"t":"i","i":1},{"t":"f","f":"2.5"},]}`,
	`{"k":"row","row":[{"t":"i","i":1} ,{"t":"f","f":"2.5"}]}`,
	`{"k":"row","row":[{"t":"i","i":01}]}`,
	`{"k":"row","row":[{"t":"i","i":-0}]}`,
	`{"k":"row","row":[{"t":"i","i":-}]}`,
	`{"k":"row","row":[{"t":"i","i":1.0}]}`,
	`{"k":"row","row":[{"t":"i","i":1e3}]}`,
	`{"k":"row","row":[{"t":"i","i":9223372036854775807}]}`,
	`{"k":"row","row":[{"t":"i","i":9223372036854775808}]}`,
	`{"k":"row","row":[{"t":"i","i":-9223372036854775808}]}`,
	`{"k":"row","row":[{"t":"i","i":-9223372036854775809}]}`,
	`{"k":"row","row":[{"t":"i","i":18446744073709551616}]}`,
	`{"k":"row","row":[{"t":"i","i":10000000000000000000}]}`,
	`{"k":"row","row":[{"t":"i","i":"1"}]}`,
	`{"k":"row","row":[{"t":"f","f":"1.5\u0030"}]}`,
	`{"k":"row","row":[{"t":"f","f":"1.5` + "\x7f" + `"}]}`,
	`{"k":"row","row":[{"t":"f","f":"caf` + "\xc3\xa9" + `"}]}`,
	`{"k":"row","row":[{"t":"f","f":""}]}`,
	`{"k":"row","row":[{"t":"f","f":"x"}]}`,
	`{"k":"row","row":[{"t":"f","f":1.5}]}`,
	`{"k":"row","row":[{"t":"f","f":"1.5","f":"2.5"}]}`,
	`{"k":"row","row":[{"t":"s","s":"a","i":3}]}`,
	`{"k":"row","row":[{"t":"b","b":true},{"t":"b"},{"t":"null"},{"t":"i"},{"t":"e","s":"(x1 + 5)"}]}`,
	`{"k":"row","row":[{"t":"q"}]}`,
	`{"k":"row","row":[{"t":"f","F":"1.5"}]}`,
	`{"k":"row","ROW":[{"t":"i","i":1}]}`,
	`{"k":"rows","row":[{"t":"i","i":1}]}`,
	`{"k":"row","row":[{"t":"i","i":1}]`,
	`{"k":"row","row":[{"t":"i","i":1}`,
	`{"k":"row","row":[{"t":"f","f":"1.5`,
	` {"k":"row","row":[{"t":"i","i":1}]}`,
	`{"k":"row","row":[{"t":"s","s":"caf\u00e9 \u003c\u003E\u0026 \u2028 \ufffd \u0000"}]}`,
	`{"k":"row","row":[{"t":"s","s":"\u00g9"}]}`,
	`{"k":"row","row":[{"t":"s","s":"\x"}]}`,
	`{"k":"row","row":[{"t":"s","s":"a\`,
	`{"k":"row","row":[{"t":"i","i":1}],"cond":"(X1 + X2) \u003e 22"}`,
	`{"k":"row","row":[{"t":"i","i":1}],"cond":"(X1 + X2) > 22"}`,
	`{"k":"row","row":[{"t":"i","i":1}],"cond":""}`,
	`{"k":"row","row":[{"t":"i","i":1}],"cond":null}`,
	`{"k":"row","cond":"x","row":[{"t":"i","i":1}]}`,
	`{"k":"head","columns":["a","b"]}`,
	`{"k":"head","columns":["a",]}`,
	`{"k":"head","columns":["a"],"columns":["b"]}`,
	`{"k":"head","columns":["a" "b"]}`,
	`{"k":"head","columns":["a"]["b"]}`,
	`{"k":"head","columns":[null]}`,
	`{"k":"head","columns":]}`,
	`{"k":"row","row":]}`,
	`{"k":"","row":]}`,
	`{"k":"head","columns":null}`,
	`{"k":"head"}`,
	`{"k":"done","rows":3}`,
	`{"k":"done","rows":0}`,
	`{"k":"done","rows":-9223372036854775808}`,
	`{"k":"done","rows":9223372036854775808}`,
	`{"k":"done"}`,
	`{"k":"err","error":{"code":"parse","message":"near \"x\"","line":2,"col":14,"source_line":"SELECT x"}}`,
	`{"k":"err","error":{"code":"internal","message":"m","line":99999999999999999999}}`,
	`{"k":"err","error":{"code":"internal"}}`,
	`{"k":"err","error":null}`,
}, fallbackLines...)

// TestCanonicalRowDifferential holds decode to the oracle on lines at and
// around the shapes the encoder writes, deterministically: appendChunk lines
// of seeded random chunks of every kind, the near misses above, and every
// single-byte deletion and substitution of a deterministic row, a
// conditioned row and an err line. Each must be accepted or rejected as
// encoding/json does, and an accepted one must yield the oracle's chunk and,
// cell by cell, its natives. Every line appendChunk writes, and every cell
// appendValue and error appendError writes, must take the one-pass scan.
func TestCanonicalRowDifferential(t *testing.T) {
	var inputs [][]byte
	rng := rand.New(rand.NewSource(36))
	kinds := map[string]int{}
	for n := 0; n < 3000; n++ {
		c, _ := randChunk(rng)
		line := appendChunk(nil, &c, nil)
		inputs = append(inputs, line)
		var fast decoder
		if !fast.scan(line) {
			t.Fatalf("the scan refused the encoder's line %s", line)
		}
		want, err := oracleDecode(line)
		if err != nil || !reflect.DeepEqual(toOracle(fast.chunk()), want) {
			t.Fatalf("%s: scan %+v, oracle %+v (%v)", line, toOracle(fast.chunk()), want, err)
		}
		kinds[c.K]++
		if c.Cond != "" || bytes.Contains(line, []byte(`\`)) || !isPlainASCII(line) {
			kinds["escaped or conditioned "+c.K]++
		}
		// Cells and errors alone, as Value and Error unmarshal them.
		for _, v := range c.Row {
			cell := appendValue(nil, v)
			var rc rawCell
			var want oracleValue
			if err := json.Unmarshal(cell, &want); err != nil || !atEnd(cell, fast.scanCell(cell, 0, &rc)) || rc.value() != Value(want) {
				t.Fatalf("the scan read the encoder's cell %s as %+v, oracle %+v (%v)", cell, rc.value(), want, err)
			}
		}
		if c.Error != nil {
			e := appendError(nil, c.Error)
			var re rawError
			var want oracleError
			if err := json.Unmarshal(e, &want); err != nil || !atEnd(e, fast.scanError(e, 0, &re)) || re.wire() != Error(want) {
				t.Fatalf("the scan read the encoder's error %s as %+v, oracle %+v (%v)", e, re.wire(), want, err)
			}
		}
	}
	for _, line := range fallbackLines {
		var d decoder
		if d.scan([]byte(line)) {
			t.Errorf("the scan took %s, which the encoder never writes", line)
		}
	}
	for _, k := range []string{"head", "row", "done", "err", "escaped or conditioned row", "escaped or conditioned head", "escaped or conditioned err"} {
		if kinds[k] == 0 {
			t.Errorf("no %s line among the seeded chunks", k)
		}
	}
	for _, line := range canonicalNearMisses {
		inputs = append(inputs, []byte(line))
	}
	for _, line := range [][]byte{
		appendChunk(nil, &Chunk{K: "row"}, hashJoinRow),
		appendChunk(nil, &conditionedRow, nil),
		appendChunk(nil, &Chunk{K: "err", Error: &Error{Code: CodeParse, Message: "near \"x\"", Line: 2, Col: 14, SourceLine: "SELECT x"}}, nil),
	} {
		for i := range line {
			inputs = append(inputs, append(line[:i:i], line[i+1:]...))
			for b := 0; b < 256; b++ {
				if byte(b) != line[i] {
					sub := bytes.Clone(line)
					sub[i] = byte(b)
					inputs = append(inputs, sub)
				}
			}
		}
	}

	var d decoder
	for _, line := range inputs {
		want, oerr := oracleDecode(line)
		derr := d.decode(line)
		if (oerr == nil) != (derr == nil) {
			t.Fatalf("%q: oracle error %v, decoder error %v", line, oerr, derr)
		}
		if derr != nil {
			continue
		}
		got := d.chunk()
		if !reflect.DeepEqual(toOracle(got), want) {
			t.Fatalf("%q:\ndecoder %+v\noracle  %+v", line, toOracle(got), want)
		}
		for i := range d.cells {
			n, nerr := d.cells[i].native()
			on, onerr := Value(want.Row[i]).Native()
			if (nerr == nil) != (onerr == nil) || !sameNative(n, on) {
				t.Fatalf("%q cell %d: decoder %#v (%v), oracle %#v (%v)", line, i, n, nerr, on, onerr)
			}
		}
	}
}

// isPlainASCII reports whether every byte of b is printable ASCII.
func isPlainASCII(b []byte) bool {
	for _, c := range b {
		if c < ' ' || c > '~' {
			return false
		}
	}
	return true
}

// conditionedRow is a row of sampled-agg's rejection statement as pipd
// writes it: its condition's ">" travels escaped.
var conditionedRow = Chunk{K: "row", Row: []Value{{T: "i", I: 17}, {T: "e", S: "(X1 + X2)"}}, Cond: "(X1 + X2) > 22"}

// hashJoinRow is one result row of the benchmark's hash join, `SELECT
// o.okey, c.price, o.price ...`: an order key and two prices.
var hashJoinRow = []pip.Value{pip.Int(2345), pip.Float(270.54000000000002), pip.Float(1093.7)}

// BenchmarkEncodeRow appends one hash-join row as pipd streams it.
func BenchmarkEncodeRow(b *testing.B) {
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	row := Chunk{K: "row"}
	for b.Loop() {
		buf = append(appendChunk(buf[:0], &row, hashJoinRow), '\n')
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkDecodeRow scans one hash-join row line and turns its cells into
// Go values, as the database/sql driver does for each row it reads.
func BenchmarkDecodeRow(b *testing.B) {
	b.ReportAllocs()
	line := append(appendChunk(nil, &Chunk{K: "row"}, hashJoinRow), '\n')
	var d decoder
	dest := make([]any, len(hashJoinRow))
	for b.Loop() {
		if err := d.decode(line); err != nil {
			b.Fatal(err)
		}
		for i := range dest {
			dest[i], _ = d.cells[i].native()
		}
	}
	b.SetBytes(int64(len(line)))
}

// BenchmarkDecodeLine reads, with a warm decoder, each other kind of line
// pipd writes — a head, a done, a row with a condition, an err — and a ?
// argument as the server reads it.
func BenchmarkDecodeLine(b *testing.B) {
	for _, l := range []struct {
		name string
		c    Chunk
	}{
		{"head", Chunk{K: "head", Columns: []string{"okey", "price", "cprice"}}},
		{"done", Chunk{K: "done", Rows: 1650}},
		{"cond-row", conditionedRow},
		{"err", Chunk{K: "err", Error: &Error{Code: CodeParse, Message: "unexpected token", Line: 2, Col: 5, SourceLine: "  FROM"}}},
	} {
		line := append(appendChunk(nil, &l.c, nil), '\n')
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			var d decoder
			for b.Loop() {
				if err := d.decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, a := range []struct {
		name string
		v    Value
	}{{"int-arg", Value{T: "i", I: 7}}, {"float-arg", Value{T: "f", F: "90"}}} {
		data := appendValue(nil, a.v)
		b.Run(a.name, func(b *testing.B) {
			b.ReportAllocs()
			var v Value
			for b.Loop() {
				if err := v.UnmarshalJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// normalize erases the difference omitempty cannot carry: empty versus
// absent slices.
func normalize(o oracleChunk) oracleChunk {
	if len(o.Columns) == 0 {
		o.Columns = nil
	}
	if len(o.Row) == 0 {
		o.Row = nil
	}
	return o
}

// TestCodecAllocs pins the per-row cost both ends were rebuilt for: a warm
// buffer takes a three-cell row with no allocation and a warm decoder scans
// it back with none — and a head, a done and a conditioned row likewise — as
// does a warm ClientRows.Next stepping through a body of row chunks; turning
// the cells into Go values then costs only what
// handing them out as `any` (database/sql's driver.Value) must — one box per
// int64 and float64, and the string's bytes plus its header.
func TestCodecAllocs(t *testing.T) {
	cells := []pip.Value{pip.Int(123456), pip.Float(270.54000000000002), ctable.String_("FRANCE")}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(1000, func() {
		row := Chunk{K: "row"}
		buf = append(appendChunk(buf[:0], &row, cells), '\n')
	}); n != 0 {
		t.Errorf("encoding a 3-cell row allocates %v times, want 0", n)
	}

	var d decoder
	if n := testing.AllocsPerRun(1000, func() {
		if err := d.decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("scanning a 3-cell row allocates %v times, want 0", n)
	}
	for _, c := range []Chunk{{K: "head", Columns: []string{"okey", "price", "cprice"}}, {K: "done", Rows: 1650}, conditionedRow} {
		line := append(appendChunk(nil, &c, nil), '\n')
		var d decoder
		if n := testing.AllocsPerRun(1000, func() {
			if err := d.decode(line); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("scanning %s allocates %v times, want 0", line, n)
		}
	}
	var natives [3]any
	if n := testing.AllocsPerRun(1000, func() {
		for i := range natives {
			natives[i], _ = d.cells[i].native()
		}
	}); n > 4 {
		t.Errorf("boxing a 3-cell row allocates %v times, want at most 4", n)
	}
	if want := [3]any{int64(123456), 270.54000000000002, "FRANCE"}; natives != want {
		t.Errorf("natives = %#v, want %#v", natives, want)
	}

	// An int costs its box; a bool and a null cost nothing (Go boxes a
	// bool without allocating).
	kinds := []pip.Value{pip.Int(123456), ctable.Bool(true), {}}
	if err := d.decode(appendChunk(nil, &Chunk{K: "row"}, kinds)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 0, 0} {
		var v any
		if n := testing.AllocsPerRun(1000, func() {
			v, _ = d.cells[i].native()
		}); n > want {
			t.Errorf("the native of %s allocates %v times, want at most %v", d.cells[i].t, n, want)
		}
		if want := []any{int64(123456), true, nil}[i]; v != want {
			t.Errorf("native %d = %#v, want %#v", i, v, want)
		}
	}

	const runs = 1000
	var body []byte
	for range runs + 2 {
		body = append(body, buf...)
	}
	rows := &ClientRows{rd: bufio.NewReader(bytes.NewReader(body))}
	if n := testing.AllocsPerRun(runs, func() {
		if !rows.Next() {
			t.Fatalf("ClientRows.Next stopped after %d rows: %v", rows.RowCount(), rows.Err())
		}
	}); n != 0 {
		t.Errorf("ClientRows.Next allocates %v times per row, want 0", n)
	}
}
