// Versioned binary codec for catalog snapshots: the full durable state of a
// database — table namespace, every tuple with its symbolic cells and
// c-table conditions, and the random-variable allocator — encoded into a
// deterministic byte stream. The write-ahead log (internal/wal) persists
// these streams as snapshot files; recovery decodes the latest one and
// replays the log suffix on top.
//
// Determinism matters beyond round-tripping: two catalogs that are
// semantically identical encode to identical bytes (tables iterate in
// sorted key order, variables intern in first-appearance order), so tests
// can assert recovered-vs-control bit-identity by comparing encodings.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
)

// snapshotVersion is the current catalog encoding version. Decoders reject
// versions they do not know; bump it on any layout change.
const snapshotVersion = 1

// ErrBadSnapshot is the sentinel wrapped by every catalog-snapshot decoding
// failure (unknown version, truncated stream, malformed structure); match
// it with errors.Is. Decoding is all-or-nothing: a failed decode leaves the
// database untouched.
var ErrBadSnapshot = errors.New("core: malformed catalog snapshot")

// expression node tags of the snapshot encoding.
const (
	tagConst byte = iota
	tagVar
	tagBin
	tagNeg
)

// EncodeCatalog writes the catalog — tables, tuples (including symbolic
// cells and conditions), and the random-variable and session allocators —
// as one versioned binary stream. The encoding is deterministic: equal
// catalog states produce equal bytes. Callers that need a state sitting
// exactly on a statement boundary wrap the call in RunExclusive.
func (db *DB) EncodeCatalog(w io.Writer) error {
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()

	keys := make([]string, 0, len(db.cat.tables))
	for k := range db.cat.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	enc := &snapEncoder{varIdx: map[expr.VarKey]int{}}
	// Pass 1: intern every variable in deterministic traversal order, so
	// leaf references can be small indices into one table of distribution
	// instances instead of repeating parameters at every occurrence.
	for _, k := range keys {
		if err := enc.collectTable(db.cat.tables[k]); err != nil {
			return err
		}
	}

	var body []byte
	body = binary.AppendUvarint(body, db.cat.nextVar)
	body = binary.AppendUvarint(body, db.cat.nextSession)
	body = binary.AppendUvarint(body, uint64(len(enc.vars)))
	for _, v := range enc.vars {
		body = binary.AppendUvarint(body, v.Key.ID)
		body = binary.AppendUvarint(body, uint64(v.Key.Subscript))
		body = ctable.AppendString(body, v.Name)
		body = ctable.AppendString(body, v.Dist.Class.Name())
		body = binary.AppendUvarint(body, uint64(len(v.Dist.Params)))
		for _, p := range v.Dist.Params {
			body = ctable.AppendFloat(body, p)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(keys)))
	for _, k := range keys {
		t := db.cat.tables[k]
		body = ctable.AppendString(body, k)
		body = ctable.AppendString(body, t.Name)
		body = binary.AppendUvarint(body, uint64(len(t.Schema)))
		for _, c := range t.Schema {
			body = ctable.AppendString(body, c.Name)
		}
		body = binary.AppendUvarint(body, uint64(len(t.Tuples)))
		for i := range t.Tuples {
			var err error
			body, err = enc.appendTuple(body, &t.Tuples[i])
			if err != nil {
				return err
			}
		}
	}

	var head []byte
	head = binary.AppendUvarint(head, snapshotVersion)
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// DecodeCatalog replaces the catalog with the state encoded in r. The
// decode is staged: the stream is fully parsed into fresh structures first
// and installed only on success, so a corrupt snapshot leaves the database
// exactly as it was (the error wraps ErrBadSnapshot). Callers must ensure
// no statements are in flight (recovery runs before a database serves).
func (db *DB) DecodeCatalog(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	d := &snapDecoder{BinReader: ctable.BinReader{Buf: raw, Sentinel: ErrBadSnapshot}}
	ver := d.Uvarint()
	if d.Err == nil && ver != snapshotVersion {
		return fmt.Errorf("%w: unknown snapshot version %d (have %d)", ErrBadSnapshot, ver, snapshotVersion)
	}
	nextVar := d.Uvarint()
	nextSession := d.Uvarint()

	nvars := d.Uvarint()
	vars := make([]*expr.Variable, 0, minU(nvars, 4096))
	for i := uint64(0); i < nvars && d.Err == nil; i++ {
		id := d.Uvarint()
		sub := d.Uvarint()
		name := d.Str()
		className := d.Str()
		nparams := d.Uvarint()
		params := make([]float64, 0, minU(nparams, 64))
		for j := uint64(0); j < nparams && d.Err == nil; j++ {
			params = append(params, d.Float())
		}
		if d.Err != nil {
			break
		}
		class, ok := dist.Lookup(className)
		if !ok {
			d.Fail("unknown distribution class %q", className)
			break
		}
		inst, err := dist.NewInstance(class, params...)
		if err != nil {
			d.Fail("invalid %s parameters: %v", className, err)
			break
		}
		vars = append(vars, &expr.Variable{
			Key:  expr.VarKey{ID: id, Subscript: int(sub)},
			Dist: inst,
			Name: name,
		})
	}
	d.vars = vars

	ntables := d.Uvarint()
	type namedTable struct {
		key string
		t   *ctable.Table
	}
	tables := make([]namedTable, 0, minU(ntables, 1024))
	for i := uint64(0); i < ntables && d.Err == nil; i++ {
		key := d.Str()
		display := d.Str()
		ncols := d.Uvarint()
		sch := make(ctable.Schema, 0, minU(ncols, 1024))
		for j := uint64(0); j < ncols && d.Err == nil; j++ {
			sch = append(sch, ctable.Column{Name: d.Str()})
		}
		t := &ctable.Table{Name: display, Schema: sch}
		ntuples := d.Uvarint()
		t.Tuples = make([]ctable.Tuple, 0, minU(ntuples, 4096))
		for j := uint64(0); j < ntuples && d.Err == nil; j++ {
			tp := d.tuple(len(sch))
			t.Tuples = append(t.Tuples, tp)
		}
		tables = append(tables, namedTable{key: key, t: t})
	}
	if d.Err == nil && d.Off != len(d.Buf) {
		d.Fail("%d trailing bytes", len(d.Buf)-d.Off)
	}
	if d.Err != nil {
		return d.Err
	}

	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	db.cat.nextVar = nextVar
	db.cat.nextSession = nextSession
	db.cat.tables = make(map[string]*ctable.Table, len(tables))
	db.cat.eq = nil
	for _, nt := range tables {
		db.cat.tables[nt.key] = nt.t
	}
	db.cat.version.Add(1)
	return nil
}

// ---------------------------------------------------------------------------
// Encoder

// snapEncoder interns variables and appends the recursive structures
// (tuples, conditions, expression trees) of the snapshot encoding.
type snapEncoder struct {
	varIdx map[expr.VarKey]int
	vars   []*expr.Variable
}

// collectTable interns every variable of a table in traversal order.
func (e *snapEncoder) collectTable(t *ctable.Table) error {
	for i := range t.Tuples {
		tp := &t.Tuples[i]
		for _, v := range tp.Values {
			if v.Kind == ctable.KindExpr {
				if err := e.collectExpr(v.E); err != nil {
					return err
				}
			}
		}
		for _, cl := range tp.Cond.Clauses {
			for _, a := range cl {
				if err := e.collectExpr(a.Left); err != nil {
					return err
				}
				if err := e.collectExpr(a.Right); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// collectExpr interns the variables of one expression tree, left to right.
func (e *snapEncoder) collectExpr(x expr.Expr) error {
	switch t := x.(type) {
	case expr.Const:
		return nil
	case expr.Var:
		if _, ok := e.varIdx[t.V.Key]; !ok {
			e.varIdx[t.V.Key] = len(e.vars)
			e.vars = append(e.vars, t.V)
		}
		return nil
	case expr.Bin:
		if err := e.collectExpr(t.Left); err != nil {
			return err
		}
		return e.collectExpr(t.Right)
	case expr.Neg:
		return e.collectExpr(t.X)
	default:
		return fmt.Errorf("core: cannot snapshot expression node %T", x)
	}
}

// appendTuple appends one tuple: its values then its condition.
func (e *snapEncoder) appendTuple(buf []byte, tp *ctable.Tuple) ([]byte, error) {
	var err error
	buf = binary.AppendUvarint(buf, uint64(len(tp.Values)))
	for _, v := range tp.Values {
		buf, err = e.appendValue(buf, v)
		if err != nil {
			return nil, err
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(tp.Cond.Clauses)))
	for _, cl := range tp.Cond.Clauses {
		buf = binary.AppendUvarint(buf, uint64(len(cl)))
		for _, a := range cl {
			buf = append(buf, byte(a.Op))
			buf, err = e.appendExpr(buf, a.Left)
			if err != nil {
				return nil, err
			}
			buf, err = e.appendExpr(buf, a.Right)
			if err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// appendValue appends one cell: a kind byte and a kind-specific payload.
func (e *snapEncoder) appendValue(buf []byte, v ctable.Value) ([]byte, error) {
	if out, ok := ctable.AppendScalar(buf, v); ok {
		return out, nil
	}
	if v.Kind != ctable.KindExpr {
		return nil, fmt.Errorf("core: cannot snapshot value kind %v", v.Kind)
	}
	return e.appendExpr(append(buf, byte(v.Kind)), v.E)
}

// appendExpr appends one expression tree in prefix order.
func (e *snapEncoder) appendExpr(buf []byte, x expr.Expr) ([]byte, error) {
	switch t := x.(type) {
	case expr.Const:
		return ctable.AppendFloat(append(buf, tagConst), float64(t)), nil
	case expr.Var:
		idx, ok := e.varIdx[t.V.Key]
		if !ok {
			return nil, fmt.Errorf("core: variable %s missing from intern table", t.V.Key)
		}
		return binary.AppendUvarint(append(buf, tagVar), uint64(idx)), nil
	case expr.Bin:
		buf = append(buf, tagBin, byte(t.Op))
		buf, err := e.appendExpr(buf, t.Left)
		if err != nil {
			return nil, err
		}
		return e.appendExpr(buf, t.Right)
	case expr.Neg:
		return e.appendExpr(append(buf, tagNeg), t.X)
	default:
		return nil, fmt.Errorf("core: cannot snapshot expression node %T", x)
	}
}

// ---------------------------------------------------------------------------
// Decoder

// snapDecoder reads the snapshot encoding: the shared primitive reader
// (failures wrap ErrBadSnapshot) plus the recursive structures.
type snapDecoder struct {
	ctable.BinReader
	vars []*expr.Variable
	// depth bounds expression recursion so corrupt input cannot overflow
	// the stack.
	depth int
}

// maxExprDepth bounds decoded expression-tree nesting.
const maxExprDepth = 10_000

// tuple reads one tuple (values + condition), validating cell arity.
func (d *snapDecoder) tuple(arity int) ctable.Tuple {
	nvals := d.Uvarint()
	if d.Err == nil && nvals != uint64(arity) {
		d.Fail("tuple arity %d does not match schema arity %d", nvals, arity)
	}
	vals := make([]ctable.Value, 0, minU(nvals, 1024))
	for i := uint64(0); i < nvals && d.Err == nil; i++ {
		vals = append(vals, d.value())
	}
	nclauses := d.Uvarint()
	c := cond.Condition{}
	if n := minU(nclauses, 1024); d.Err == nil && n > 0 {
		c.Clauses = make([]cond.Clause, 0, n)
	}
	for i := uint64(0); i < nclauses && d.Err == nil; i++ {
		natoms := d.Uvarint()
		var cl cond.Clause
		for j := uint64(0); j < natoms && d.Err == nil; j++ {
			op := cond.CmpOp(d.Byte())
			if d.Err == nil && (op < cond.EQ || op > cond.GE) {
				d.Fail("unknown comparison operator %d", op)
			}
			left := d.expr()
			right := d.expr()
			if d.Err == nil {
				cl = append(cl, cond.NewAtom(left, op, right))
			}
		}
		if d.Err == nil {
			c.Clauses = append(c.Clauses, cl)
		}
	}
	return ctable.Tuple{Values: vals, Cond: c}
}

// value reads one cell.
func (d *snapDecoder) value() ctable.Value {
	kind := ctable.Kind(d.Byte())
	if v, ok := d.Scalar(kind); ok || d.Err != nil {
		return v
	}
	if kind != ctable.KindExpr {
		d.Fail("unknown value kind %d", kind)
		return ctable.Value{}
	}
	return ctable.Value{Kind: ctable.KindExpr, E: d.expr()}
}

// expr reads one expression tree.
func (d *snapDecoder) expr() expr.Expr {
	if d.Err != nil {
		return expr.Const(0)
	}
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxExprDepth {
		d.Fail("expression nesting exceeds %d", maxExprDepth)
		return expr.Const(0)
	}
	switch tag := d.Byte(); tag {
	case tagConst:
		return expr.Const(d.Float())
	case tagVar:
		idx := d.Uvarint()
		if d.Err != nil {
			return expr.Const(0)
		}
		if idx >= uint64(len(d.vars)) {
			d.Fail("variable index %d out of range (%d interned)", idx, len(d.vars))
			return expr.Const(0)
		}
		return expr.NewVar(d.vars[idx])
	case tagBin:
		op := expr.Op(d.Byte())
		if d.Err == nil && (op < expr.OpAdd || op > expr.OpDiv) {
			d.Fail("unknown arithmetic operator %d", op)
		}
		left := d.expr()
		right := d.expr()
		if d.Err != nil {
			return expr.Const(0)
		}
		return expr.Bin{Op: op, Left: left, Right: right}
	case tagNeg:
		x := d.expr()
		if d.Err != nil {
			return expr.Const(0)
		}
		return expr.Neg{X: x}
	default:
		if d.Err == nil {
			d.Fail("unknown expression tag %d", tag)
		}
		return expr.Const(0)
	}
}

// ---------------------------------------------------------------------------
// Small helpers

// minU clamps an untrusted uint64 count to a sane preallocation bound.
func minU(n uint64, cap int) int {
	if n < uint64(cap) {
		return int(n)
	}
	return cap
}
