package ctable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The primitives both durable byte formats are built from — catalog
// snapshots (internal/core) and write-ahead-log record payloads
// (internal/wal): uvarints and varints, length-prefixed strings, float64s as
// their exact little-endian bits, and a scalar cell as a kind byte plus a
// kind-specific payload. A layout change here moves both formats.

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendFloat appends the exact bits of a float64, little endian.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendScalar appends one scalar cell, kind byte then payload; it reports
// false, appending nothing, for any other kind (KindExpr, or an unknown one).
func AppendScalar(buf []byte, v Value) ([]byte, bool) {
	switch v.Kind {
	case KindNull:
		return append(buf, byte(v.Kind)), true
	case KindFloat:
		return AppendFloat(append(buf, byte(v.Kind)), v.F), true
	case KindInt:
		return binary.AppendVarint(append(buf, byte(v.Kind)), v.I), true
	case KindString:
		return AppendString(append(buf, byte(v.Kind)), v.S), true
	case KindBool:
		if v.B {
			return append(buf, byte(v.Kind), 1), true
		}
		return append(buf, byte(v.Kind), 0), true
	default:
		return buf, false
	}
}

// BinReader reads those primitives from Buf, bounds-checked, latching the
// first failure in Err: once it is set every accessor is a no-op returning
// the zero value, so a decoder checks Err where it matters, not after each
// read. Failures wrap Sentinel and name the offset they occurred at.
type BinReader struct {
	Buf      []byte
	Off      int
	Err      error
	Sentinel error
}

// Fail latches a decoding error wrapping Sentinel.
func (r *BinReader) Fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf("%w: %s (offset %d)", r.Sentinel, fmt.Sprintf(format, args...), r.Off)
	}
}

// Uvarint reads one unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.Buf[r.Off:])
	if n <= 0 {
		r.Fail("truncated uvarint")
		return 0
	}
	r.Off += n
	return v
}

// varint reads one signed varint.
func (r *BinReader) varint() int64 {
	if r.Err != nil {
		return 0
	}
	v, n := binary.Varint(r.Buf[r.Off:])
	if n <= 0 {
		r.Fail("truncated varint")
		return 0
	}
	r.Off += n
	return v
}

// Byte reads one byte.
func (r *BinReader) Byte() byte {
	if r.Err != nil {
		return 0
	}
	if r.Off >= len(r.Buf) {
		r.Fail("truncated byte")
		return 0
	}
	b := r.Buf[r.Off]
	r.Off++
	return b
}

// Float reads one float64 (8 bytes, little endian, exact bits).
func (r *BinReader) Float() float64 {
	if r.Err != nil {
		return 0
	}
	if r.Off+8 > len(r.Buf) {
		r.Fail("truncated float")
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.Buf[r.Off:])
	r.Off += 8
	return math.Float64frombits(bits)
}

// Str reads one length-prefixed string.
func (r *BinReader) Str() string {
	n := r.Uvarint()
	if r.Err != nil {
		return ""
	}
	if uint64(len(r.Buf)-r.Off) < n {
		r.Fail("truncated string of length %d", n)
		return ""
	}
	s := string(r.Buf[r.Off : r.Off+int(n)])
	r.Off += int(n)
	return s
}

// Scalar reads the payload of a scalar cell whose kind byte the caller has
// read; it reports false, consuming nothing, for any other kind (a snapshot
// goes on to read an expression there, a log record fails).
func (r *BinReader) Scalar(kind Kind) (Value, bool) {
	switch kind {
	case KindNull:
		return Null(), true
	case KindFloat:
		return Float(r.Float()), true
	case KindInt:
		return Int(r.varint()), true
	case KindString:
		return String_(r.Str()), true
	case KindBool:
		return Bool(r.Byte() != 0), true
	default:
		return Value{}, false
	}
}
