package ctable

import (
	"fmt"
	"slices"
	"strings"

	"pip/internal/cond"
	"pip/internal/expr"
)

// Column describes one data column of a c-table.
type Column struct {
	Name string
}

// Schema is the ordered list of data columns. The local condition is not a
// schema column; it lives on the tuple (Fig. 4's phi columns are an
// encoding detail of the Postgres embedding, not of the model).
type Schema []Column

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns an independent copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Tuple is one c-table row: data values plus the local condition. The
// condition is kept in DNF; relational operators preserve the invariant
// that conditions produced without DISTINCT remain single conjunctive
// clauses (paper §III-B).
type Tuple struct {
	Values []Value
	Cond   cond.Condition
}

// NewTuple builds a tuple with the always-true condition.
func NewTuple(vals ...Value) Tuple {
	return Tuple{Values: vals, Cond: cond.TrueCondition()}
}

// Clone deep-copies the tuple's value slice (conditions are immutable by
// convention and shared).
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Values))
	copy(vals, t.Values)
	return Tuple{Values: vals, Cond: t.Cond}
}

// IsDeterministic reports whether the tuple has a trivially true condition
// and no symbolic cells.
func (t Tuple) IsDeterministic() bool {
	if !t.Cond.IsTrue() {
		return false
	}
	for _, v := range t.Values {
		if v.IsSymbolic() {
			return false
		}
	}
	return true
}

// dataKey returns a hashable key of the data columns (not the condition),
// as needed by distinct and difference.
func (t Tuple) dataKey() string {
	var b []byte
	for _, v := range t.Values {
		b = v.AppendBinaryKey(b)
	}
	return string(b)
}

// Table is a probabilistic c-table: a schema plus a bag of tuples.
type Table struct {
	Name   string
	Schema Schema
	Tuples []Tuple
}

// New creates an empty table with the given column names.
func New(name string, cols ...string) *Table {
	sch := make(Schema, len(cols))
	for i, c := range cols {
		sch[i] = Column{Name: c}
	}
	return &Table{Name: name, Schema: sch}
}

// Append adds a tuple, validating arity.
func (tb *Table) Append(t Tuple) error {
	if len(t.Values) != len(tb.Schema) {
		return fmt.Errorf("ctable: tuple arity %d does not match schema arity %d of %s",
			len(t.Values), len(tb.Schema), tb.Name)
	}
	tb.Tuples = append(tb.Tuples, t)
	return nil
}

// MustAppend is Append panicking on arity mismatch (programmer error).
func (tb *Table) MustAppend(t Tuple) {
	if err := tb.Append(t); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (tb *Table) Len() int { return len(tb.Tuples) }

// Clone returns a deep copy of the table.
func (tb *Table) Clone() *Table {
	out := &Table{Name: tb.Name, Schema: tb.Schema.Clone()}
	out.Tuples = make([]Tuple, len(tb.Tuples))
	for i, t := range tb.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// String renders the table for debugging, one row per line with its
// condition.
func (tb *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s)\n", tb.Name, strings.Join(tb.Schema.Names(), ", "))
	for _, t := range tb.Tuples {
		cells := make([]string, len(t.Values))
		for i, v := range t.Values {
			cells[i] = v.String()
		}
		fmt.Fprintf(&b, "  (%s) | %s\n", strings.Join(cells, ", "), t.Cond.String())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Relational algebra (Fig. 1)

// Select implements C_sigma(R): each surviving tuple's condition is
// conjoined with the predicate's symbolic atoms; deterministically false
// rows are dropped; rows whose condition becomes provably inconsistent are
// removed (paper §III-C "if such tuples are discovered, they may be freely
// removed").
func Select(tb *Table, p Predicate) (*Table, error) {
	out := &Table{Name: tb.Name, Schema: tb.Schema}
	for i := range tb.Tuples {
		kept, keep, err := ApplyPredicate(&tb.Tuples[i], p)
		if err != nil {
			return nil, err
		}
		if keep {
			out.Tuples = append(out.Tuples, kept)
		}
	}
	return out, nil
}

// ApplyPredicate evaluates p against a single tuple with Select's
// semantics: keep=false drops the tuple (deterministically false predicate,
// or a condition proven inconsistent by Algorithm 3.2); otherwise the
// returned tuple carries the input condition conjoined with the predicate's
// symbolic atoms. It is the per-row unit behind both the materializing
// Select operator and streaming cursors.
func ApplyPredicate(t *Tuple, p Predicate) (kept Tuple, keep bool, err error) {
	outcome, atoms, err := p.Eval(t)
	if err != nil {
		return Tuple{}, false, err
	}
	switch outcome {
	case PredFalse:
		return Tuple{}, false, nil
	case PredTrue:
		return *t, true, nil
	default:
		nc := t.Cond.And(cond.FromClause(atoms))
		nc = dropInconsistent(nc)
		if nc.IsFalse() {
			return Tuple{}, false, nil
		}
		return Tuple{Values: t.Values, Cond: nc}, true, nil
	}
}

// dropInconsistent removes clauses that Algorithm 3.2 proves inconsistent.
func dropInconsistent(c cond.Condition) cond.Condition {
	out := cond.Condition{}
	for _, cl := range c.Clauses {
		res := cond.CheckConsistency(cl)
		if res.Verdict == cond.Inconsistent {
			continue
		}
		out.Clauses = append(out.Clauses, cl)
	}
	return out
}

// Project implements C_pi(R) generalized to computed targets: each output
// column is a Scalar over the input tuple. Conditions pass through
// unchanged (the CTYPE pass-through rewrite of §V-A).
func Project(tb *Table, names []string, targets []Scalar) (*Table, error) {
	if len(names) != len(targets) {
		return nil, fmt.Errorf("ctable: %d names for %d projection targets", len(names), len(targets))
	}
	sch := make(Schema, len(names))
	for i, n := range names {
		sch[i] = Column{Name: n}
	}
	out := &Table{Name: tb.Name, Schema: sch}
	for i := range tb.Tuples {
		t := &tb.Tuples[i]
		vals := make([]Value, len(targets))
		for j, tgt := range targets {
			v, err := tgt.Resolve(t)
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		out.Tuples = append(out.Tuples, Tuple{Values: vals, Cond: t.Cond})
	}
	return out, nil
}

// Product implements C_RxS: the cross product conjoins conditions.
func Product(a, b *Table) *Table {
	sch := make(Schema, 0, len(a.Schema)+len(b.Schema))
	sch = append(sch, a.Schema...)
	sch = append(sch, b.Schema...)
	out := &Table{Name: a.Name + "_x_" + b.Name, Schema: sch}
	for i := range a.Tuples {
		ta := &a.Tuples[i]
		for j := range b.Tuples {
			tbp := &b.Tuples[j]
			vals := make([]Value, 0, len(ta.Values)+len(tbp.Values))
			vals = append(vals, ta.Values...)
			vals = append(vals, tbp.Values...)
			nc := ta.Cond.And(tbp.Cond)
			if nc.IsFalse() {
				continue
			}
			out.Tuples = append(out.Tuples, Tuple{Values: vals, Cond: nc})
		}
	}
	return out
}

// Union implements C_RuS: bag union (list concatenation).
func Union(a, b *Table) (*Table, error) {
	if len(a.Schema) != len(b.Schema) {
		return nil, fmt.Errorf("ctable: union arity mismatch: %d vs %d", len(a.Schema), len(b.Schema))
	}
	out := &Table{Name: a.Name + "_u_" + b.Name, Schema: a.Schema}
	out.Tuples = append(out.Tuples, a.Tuples...)
	out.Tuples = append(out.Tuples, b.Tuples...)
	return out, nil
}

// Distinct implements C_distinct(R): duplicate data tuples coalesce into a
// single row whose condition is the disjunction of the duplicates'
// conditions (DNF). Output order follows first occurrence.
func Distinct(tb *Table) *Table {
	out := &Table{Name: tb.Name, Schema: tb.Schema}
	pos := map[string]int{}
	for i := range tb.Tuples {
		t := &tb.Tuples[i]
		k := t.dataKey()
		if j, seen := pos[k]; seen {
			out.Tuples[j].Cond = out.Tuples[j].Cond.Or(t.Cond)
			continue
		}
		pos[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, Tuple{Values: t.Values, Cond: t.Cond})
	}
	return out
}

// Not returns the negation of a DNF condition, re-normalized to DNF:
// NOT (C1 OR C2 ...) = NOT C1 AND NOT C2 ..., each NOT Ci being a
// disjunction of negated atoms, distributed back into DNF.
func Not(c cond.Condition) cond.Condition {
	if c.IsFalse() {
		return cond.TrueCondition()
	}
	out := cond.TrueCondition()
	for _, cl := range c.Clauses {
		out = out.And(cl.NegateToDNF())
		if out.IsFalse() {
			return out
		}
	}
	return out
}

// Difference implements C_(R-S) from Fig. 1: for each distinct tuple of R,
// conjoin the negation of the matching distinct(S) condition (or keep the
// tuple unchanged if S has no matching row).
func Difference(a, b *Table) (*Table, error) {
	if len(a.Schema) != len(b.Schema) {
		return nil, fmt.Errorf("ctable: difference arity mismatch: %d vs %d", len(a.Schema), len(b.Schema))
	}
	da := Distinct(a)
	db := Distinct(b)
	sCond := map[string]cond.Condition{}
	for i := range db.Tuples {
		sCond[db.Tuples[i].dataKey()] = db.Tuples[i].Cond
	}
	out := &Table{Name: a.Name + "_minus_" + b.Name, Schema: a.Schema}
	for i := range da.Tuples {
		t := &da.Tuples[i]
		pi, matched := sCond[t.dataKey()]
		if !matched {
			out.Tuples = append(out.Tuples, *t)
			continue
		}
		nc := t.Cond.And(Not(pi))
		nc = dropInconsistent(nc)
		if nc.IsFalse() {
			continue
		}
		out.Tuples = append(out.Tuples, Tuple{Values: t.Values, Cond: nc})
	}
	return out, nil
}

// GroupBy partitions tuples by deterministic key columns, returning the
// groups in first-occurrence order (a loop over a Grouper).
func GroupBy(tb *Table, keyCols []int) ([]GroupRows, error) {
	names := make([]string, len(keyCols))
	for i, c := range keyCols {
		if c < 0 || c >= len(tb.Schema) {
			return nil, fmt.Errorf("ctable: group-by column %d out of range", c)
		}
		names[i] = tb.Schema[c].Name
	}
	g := NewGrouper(names)
	key := make([]Value, len(keyCols))
	var groups []GroupRows
	for i := range tb.Tuples {
		for n, c := range keyCols {
			key[n] = tb.Tuples[i].Values[c]
		}
		j, opened, err := g.Group(key)
		if err != nil {
			return nil, err
		}
		if opened {
			groups = append(groups, GroupRows{Key: slices.Clone(key)})
		}
		groups[j].Rows = append(groups[j].Rows, i)
	}
	return groups, nil
}

// Grouper numbers the groups of rows as the rows arrive: 0, 1, … in
// first-occurrence order of their key cells, which key by AppendBinaryKey.
// Symbolic key cells are rejected: the paper considers grouping by
// (continuously) uncertain columns of doubtful value (§II-C).
type Grouper struct {
	names []string // of the key columns, for the symbolic-key error
	pos   map[string]int
	buf   []byte
}

// NewGrouper returns a grouper over key columns with the given names.
func NewGrouper(names []string) *Grouper {
	return &Grouper{names: names, pos: map[string]int{}}
}

// Group returns the group of a row whose key cells are key, and whether the
// row opened it.
func (g *Grouper) Group(key []Value) (group int, opened bool, err error) {
	g.buf = g.buf[:0]
	for i, v := range key {
		if v.IsSymbolic() {
			return 0, false, fmt.Errorf("ctable: cannot group by symbolic column %s", g.names[i])
		}
		g.buf = v.AppendBinaryKey(g.buf)
	}
	if j, ok := g.pos[string(g.buf)]; ok {
		return j, false, nil
	}
	j := len(g.pos)
	g.pos[string(g.buf)] = j
	return j, true, nil
}

// GroupRows is one group-by bucket: the key values plus indexes of member
// rows in the source table.
type GroupRows struct {
	Key  []Value
	Rows []int
}

// VarsOf collects every random variable occurring anywhere in the table
// (cells and conditions).
func VarsOf(tb *Table) map[expr.VarKey]*expr.Variable {
	set := map[expr.VarKey]*expr.Variable{}
	for i := range tb.Tuples {
		t := &tb.Tuples[i]
		for _, v := range t.Values {
			v.CollectVars(set)
		}
		t.Cond.CollectVars(set)
	}
	return set
}
