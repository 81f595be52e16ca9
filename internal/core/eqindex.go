package core

// The equality access path. PIP runs the deterministic part of a query as
// ordinary relational work over c-tables (paper §III); the original ran
// inside Postgres, where `key = constant` is an index probe. SnapshotEq is
// that probe here: the planner asks for the rows of a live table whose
// cell in one column may equal a constant, and the catalog answers from an
// index it builds on the first probe of that (table, column) and extends on
// later ones. Live tables are append-only under the catalog lock, so the
// index never needs rebuilding; DDL that replaces or removes a table
// (Drop, Register, DecodeCatalog) discards the table's indexes with it.
//
// The index is a drop-only prefilter, never a decision: a row it returns
// may still fail the comparison, and the SQL layer re-applies the conjunct
// in its final filter. It therefore returns every row a key can match plus
// every row no key can decide — symbolic, NULL, bool and NaN cells (NaN
// compares equal to every number under ctable.Value.Compare).

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pip/internal/ctable"
)

// eqKey is the equality class of a decidable cell or probe key: numbers by
// their AsFloat value with -0 folded onto +0, so 1, 1.0 and both zeros each
// share a class, and strings by content.
type eqKey struct {
	f   float64
	s   string
	str bool
}

// cellKey returns the equality class of v, or ok=false when no key can
// decide a comparison against v (symbolic, NULL, bool, NaN).
func cellKey(v ctable.Value) (k eqKey, ok bool) {
	switch v.Kind {
	case ctable.KindString:
		return eqKey{s: v.S, str: true}, true
	case ctable.KindInt, ctable.KindFloat:
		f, _ := v.AsFloat()
		if f != f {
			return eqKey{}, false
		}
		if f == 0 {
			f = 0 // -0 == +0 under Compare
		}
		return eqKey{f: f}, true
	default:
		return eqKey{}, false
	}
}

// Probeable reports whether SnapshotEq can probe for key: an int, a string
// or a float other than NaN. Every other constant keeps the full scan.
func Probeable(key ctable.Value) bool {
	_, ok := cellKey(key)
	return ok
}

// eqChain is one key's rows: the first and last of its chain through
// eqIndex.next, and how many rows it links.
type eqChain struct {
	first, last, n int32
}

// eqIndex is the equality index of one column of one live table. It costs
// one int32 per row plus one map entry per distinct key.
type eqIndex struct {
	covered int
	// next links each keyed row to the following row with the same key;
	// 0 ends the chain (links point forward, so row 0 is never a target).
	// Probes walk it outside the catalog lock while a later extension may
	// link a chain's last row onward, so links are atomic; a link to a row
	// past the probe's snapshot ends that probe's walk.
	next   []atomic.Int32
	keys   map[eqKey]eqChain
	always []int32 // rows no key can decide, ascending
}

// extend indexes rows covered..len(tuples) of column col.
func (ix *eqIndex) extend(tuples []ctable.Tuple, col int) {
	for i := ix.covered; i < len(tuples); i++ {
		r := int32(i)
		ix.next = append(ix.next, atomic.Int32{})
		var k eqKey
		ok := false
		if vals := tuples[i].Values; col < len(vals) {
			k, ok = cellKey(vals[col])
		}
		if !ok {
			ix.always = append(ix.always, r)
			continue
		}
		ch, seen := ix.keys[k]
		if !seen {
			ix.keys[k] = eqChain{first: r, last: r, n: 1}
			continue
		}
		ix.next[ch.last].Store(r)
		ix.keys[k] = eqChain{first: ch.first, last: r, n: ch.n + 1}
	}
	ix.covered = len(tuples)
}

// EqCandidates enumerates the candidate rows of one SnapshotEq probe in
// ascending order: the key's chain merged with the rows no key can decide.
// Walking it takes no lock and allocates nothing.
type EqCandidates struct {
	next   []atomic.Int32 // the index's links, clipped to the probe's snapshot
	row    int32          // next chain row, -1 once the chain is exhausted
	always []int32        // undecidable rows not yet returned
	n      int
}

// Len returns how many rows the probe yields in total.
func (c *EqCandidates) Len() int { return c.n }

// Next returns the next candidate row index, or -1 when there is none.
func (c *EqCandidates) Next() int {
	if c.row >= 0 && (len(c.always) == 0 || c.row < c.always[0]) {
		r := c.row
		c.row = -1
		if nx := c.next[r].Load(); nx > 0 && int(nx) < len(c.next) {
			c.row = nx
		}
		return int(r)
	}
	if len(c.always) == 0 {
		return -1
	}
	r := c.always[0]
	c.always = c.always[1:]
	return int(r)
}

// SnapshotEq is Snapshot with an equality access path: under the catalog
// lock it takes the capacity-clipped snapshot of t, creates the index of
// column col on first use, indexes the rows appended since the last probe,
// and returns the snapshot with the candidates for `col = key` among its
// rows. key must be Probeable. The first probe of a column holds the
// catalog lock for one pass over the table; later probes index only the
// rows appended since.
func (db *DB) SnapshotEq(t *ctable.Table, col int, key ctable.Value) ([]ctable.Tuple, EqCandidates) {
	k, ok := cellKey(key)
	if !ok {
		panic(fmt.Sprintf("core: SnapshotEq key %s is not probeable", key))
	}
	db.cat.mu.Lock()
	defer db.cat.mu.Unlock()
	tuples := t.Tuples[:len(t.Tuples):len(t.Tuples)]
	ix := db.cat.eqIndexLocked(t, col)
	ix.extend(tuples, col)
	n := len(tuples)
	c := EqCandidates{next: ix.next[:n], row: -1, always: ix.always}
	c.n = len(c.always)
	if ch, found := ix.keys[k]; found {
		c.row = ch.first
		c.n += int(ch.n)
	}
	return tuples, c
}

// eqIndexLocked returns the index of column col of t, creating it on first
// use. Only a table the catalog currently holds keeps its index: a table a
// concurrent DROP has already removed gets a throwaway one. Requires cat.mu.
func (cat *catalog) eqIndexLocked(t *ctable.Table, col int) *eqIndex {
	cols := cat.eq[t]
	if col < len(cols) && cols[col] != nil {
		return cols[col]
	}
	ix := &eqIndex{keys: map[eqKey]eqChain{}}
	if cat.tables[strings.ToLower(t.Name)] != t {
		return ix
	}
	if cols == nil {
		cols = make([]*eqIndex, len(t.Schema))
		if cat.eq == nil {
			cat.eq = map[*ctable.Table][]*eqIndex{}
		}
		cat.eq[t] = cols
	}
	cols[col] = ix
	return ix
}
