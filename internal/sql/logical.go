// Logical plan IR: the planner's intermediate representation of a SELECT.
//
// Plan(env, stmt) lowers the AST into a tree of logical nodes
// (Scan -> Join -> Filter -> Project/Aggregate -> Distinct -> Sort -> Limit),
// the rule-based rewriter (rewrite.go) transforms the tree — constant
// folding, predicate pushdown, equality lookup, equi-join key extraction,
// projection pruning — and the physical layer (vecops.go) lowers each node
// onto a Cursor operator. The rewrites are all "condition-free": they
// change which tuples are enumerated, never which predicates conjoin
// condition atoms or in what order, so planned results are bit-identical to
// the naive cross-product-then-filter evaluation (see docs/ARCHITECTURE.md).

package sql

import (
	"fmt"
	"strings"

	"pip/internal/core"
	"pip/internal/ctable"
)

// lnode is one node of the logical plan IR.
type lnode interface {
	// op names the node kind for plan rendering ("Scan", "HashJoin", ...).
	op() string
	// detail renders operator-specific information for plan output.
	detail() string
	// children returns the node's inputs, left to right.
	children() []lnode
}

// lpred is one compiled predicate with its source-level rendering.
type lpred struct {
	cmp     ctable.Compare
	display string
}

// lScan reads one FROM table's tuple snapshot. keep (projection pruning)
// selects the emitted columns; pre (predicate pushdown) is a drop-only
// prefilter in the table's full-local column space: rows whose predicate is
// deterministically false are skipped, all others pass unchanged — atom
// conjunction stays with the final Filter so conditions are bit-identical
// to unplanned evaluation. key (equality lookup) is a drop-only prefilter
// too: the scan reads only the candidate rows the catalog's equality index
// returns for it, in snapshot order.
type lScan struct {
	table  string
	alias  string
	tb     *ctable.Table // live catalog table, read by snapshot
	tuples []ctable.Tuple
	schema ctable.Schema
	keep   []int // pruned local columns in order; nil = all
	pre    []lpred
	key    *lkey
	cand   core.EqCandidates
}

// lkey is a scan's equality lookup: `col = val` on a table-local column,
// val a core.Probeable constant.
type lkey struct {
	col     int
	val     ctable.Value
	display string
}

// snapshot reads the scan's rows under the catalog lock, once the rewrite
// rules have chosen its access path: the whole table, or the table plus
// the equality lookup's candidates.
func (s *lScan) snapshot(db *core.DB) {
	if s.key != nil {
		s.tuples, s.cand = db.SnapshotEq(s.tb, s.key.col, s.key.val)
		return
	}
	s.tuples = db.Snapshot(s.tb)
}

func (s *lScan) op() string { return "Scan" }

func (s *lScan) detail() string {
	var b strings.Builder
	b.WriteString(s.table)
	if s.alias != "" && !strings.EqualFold(s.alias, s.table) {
		b.WriteString(" as " + s.alias)
	}
	if s.keep != nil {
		if len(s.keep) == 0 {
			b.WriteString(" [cols: none]")
		} else {
			names := make([]string, len(s.keep))
			for i, c := range s.keep {
				names[i] = s.schema[c].Name
			}
			b.WriteString(" [cols: " + strings.Join(names, ", ") + "]")
		}
	}
	if s.key != nil {
		b.WriteString(" [key: " + s.key.display + "]")
	}
	if len(s.pre) > 0 {
		parts := make([]string, len(s.pre))
		for i, p := range s.pre {
			parts[i] = p.display
		}
		b.WriteString(" [pre: " + strings.Join(parts, " AND ") + "]")
	}
	return b.String()
}

func (s *lScan) children() []lnode { return nil }

// outCols returns the emitted column names.
func (s *lScan) outCols() []string {
	if s.keep == nil {
		return s.schema.Names()
	}
	names := make([]string, len(s.keep))
	for i, c := range s.keep {
		names[i] = s.schema[c].Name
	}
	return names
}

// lJoin pairs the left subtree with one scan. hash=true pairs rows whose
// deterministic key columns are equal (plus a fallback bucket for symbolic
// keys, which pair with everything and defer to the final Filter); hash=false
// is the nested-loop cross product. Either way input conditions conjoin per
// the paper's C_RxS and pairs with trivially false conditions are dropped.
type lJoin struct {
	left, right lnode
	hash        bool
	leftKeys    []int // positions in the left subtree's output row
	rightKeys   []int // positions in the right scan's (pruned) output row
	display     []string
}

func (j *lJoin) op() string {
	if j.hash {
		return "HashJoin"
	}
	return "NestedLoop"
}

func (j *lJoin) detail() string {
	if len(j.display) == 0 {
		return ""
	}
	return "(" + strings.Join(j.display, " AND ") + ")"
}

func (j *lJoin) children() []lnode { return []lnode{j.left, j.right} }

// lFilter applies the WHERE conjuncts (minus plan-time-folded ones) in
// source order: deterministic comparisons drop rows, symbolic ones conjoin
// condition atoms (the CTYPE rewrite of paper §V-A).
type lFilter struct {
	input lnode
	preds []lpred
}

func (f *lFilter) op() string { return "Filter" }

func (f *lFilter) detail() string {
	parts := make([]string, len(f.preds))
	for i, p := range f.preds {
		parts[i] = p.display
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

func (f *lFilter) children() []lnode { return []lnode{f.input} }

// lProject computes the SELECT targets of an aggregate-free query, plus the
// per-row probability functions conf(), expectation() and
// variance()/stddev() at the marked output positions.
type lProject struct {
	input   lnode
	names   []string
	targets []ctable.Scalar
	// The marked positions are slices, not sets: bindProject appends them in
	// ascending column order, and the project operator evaluates them in that
	// order — per-row sampler work and error selection must not depend on map
	// iteration order.
	confCols []int
	expCols  []int
	varCols  []varCol
}

// varCol marks one output position computed by variance() or stddev().
type varCol struct {
	pos  int
	kind string
}

func (p *lProject) op() string { return "Project" }

func (p *lProject) detail() string { return "(" + strings.Join(p.names, ", ") + ")" }

func (p *lProject) children() []lnode { return []lnode{p.input} }

// aggTarget is one aggregate output: the kind (expected_sum, conf, ...) and
// the staged column holding its argument (-1 for argument-free aggregates).
type aggTarget struct {
	kind    string
	argCol  int
	outName string
}

// aggOutCol maps one output column to its group key or aggregate.
type aggOutCol struct {
	isKey  bool
	keyIdx int // index into the staged key columns
	aggIdx int // index into aggs
	name   string
}

// lAggregate materializes its input, stages [group keys..., agg args...]
// per row, partitions by the key columns, and evaluates the expectation
// aggregates per group under the request-scoped sampler.
type lAggregate struct {
	input       lnode
	staged      []ctable.Scalar
	stagedNames []string
	nKeys       int
	aggs        []aggTarget
	outCols     []aggOutCol
	outNames    []string
}

func (a *lAggregate) op() string { return "Aggregate" }

func (a *lAggregate) detail() string {
	d := "(" + strings.Join(a.outNames, ", ") + ")"
	if a.nKeys > 0 {
		d += " [group by " + strings.Join(a.stagedNames[:a.nKeys], ", ") + "]"
	}
	return d
}

func (a *lAggregate) children() []lnode { return []lnode{a.input} }

// lDistinct coalesces duplicate data tuples, OR-ing their conditions into
// DNF (C_distinct of Fig. 1). Blocking.
type lDistinct struct{ input lnode }

func (d *lDistinct) op() string        { return "Distinct" }
func (d *lDistinct) detail() string    { return "" }
func (d *lDistinct) children() []lnode { return []lnode{d.input} }

// lSort orders the materialized result by one output column. Blocking.
type lSort struct {
	input lnode
	col   int
	name  string
	desc  bool
}

func (s *lSort) op() string { return "Sort" }

func (s *lSort) detail() string {
	if s.desc {
		return "(" + s.name + " DESC)"
	}
	return "(" + s.name + ")"
}

func (s *lSort) children() []lnode { return []lnode{s.input} }

// lLimit truncates the stream after n rows; upstream operators stop being
// pulled, so per-row sampling beyond the limit never runs.
type lLimit struct {
	input lnode
	n     int
}

func (l *lLimit) op() string        { return "Limit" }
func (l *lLimit) detail() string    { return fmt.Sprintf("%d", l.n) }
func (l *lLimit) children() []lnode { return []lnode{l.input} }

// lEmpty is the zero-row relation a constant-false WHERE folds to: no table
// is ever scanned.
type lEmpty struct{ reason string }

func (e *lEmpty) op() string        { return "Result" }
func (e *lEmpty) detail() string    { return "(no rows: " + e.reason + ")" }
func (e *lEmpty) children() []lnode { return nil }
