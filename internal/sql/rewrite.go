// Rule-based plan rewriter. Every rule is condition-free: it changes which
// tuple combinations are enumerated, never which predicates conjoin
// condition atoms or in what order, so rewritten plans produce results
// bit-identical to naive cross-product-then-filter evaluation — including
// the symbolic conditions the paper's deferred sampling integrates later.
//
//	constant folding     WHERE 1 = 0 plans to a zero-row Result without
//	                     scanning; always-true conjuncts drop from the filter.
//	predicate pushdown   single-table conjuncts become drop-only prefilters
//	                     on their scan, in single-table queries too: rows a
//	                     conjunct proves deterministically false on the
//	                     stored cells are skipped before they are batched or
//	                     joined; a conjunct the compiled prefilter cannot
//	                     decide keeps the row, and the final Filter conjoins
//	                     the atoms of the rows that pass.
//	equality lookup      a col = constant conjunct makes its scan read only
//	                     the catalog equality index's candidate rows (the
//	                     key's rows plus every row no key can decide), in
//	                     snapshot order; the Filter still applies it.
//	equi-join extraction a.x = b.y conjuncts become hash-join pairing keys,
//	                     replacing the filtered cross product.
//	projection pruning   scans emit only the columns the query reads.
//
// Scope of the contract: bit-identity is defined over queries whose
// predicate evaluation succeeds. An ill-typed comparison (say a string
// cell against a number) errors only on the tuple pairs that evaluate it,
// and the rules above may prune exactly that enumeration — a constant-false
// conjunct skips the scan, a pushed prefilter drops a row before an earlier
// conjunct errors on it or empties a join input, a hash
// join never pairs keys of incomparable kinds, an equality lookup never
// reads a string cell for a numeric key (or a number for a string key) —
// in which case the planned query succeeds with the rows the error-free
// evaluation defines, where rules-off evaluation would surface the per-row
// error. This mirrors how deterministic SQL engines treat errors in
// unreached rows and is pinned by TestRewriteErrorScope.

package sql

import (
	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
)

// rewriteFold evaluates plan-time-known conjuncts (no column references).
// An always-false conjunct short-circuits the whole input to a zero-row
// Result; always-true conjuncts are dropped from the filter. Symbolic
// constants (e.g. a bound random-variable argument) and conjuncts whose
// evaluation errors are left for runtime, preserving unplanned semantics.
func rewriteFold(conjs []*conjunct, h Hints) (constFalse bool, reason string) {
	if h.NoFold {
		return false, ""
	}
	for _, c := range conjs {
		if !c.mappable || len(c.cols) > 0 {
			continue
		}
		empty := ctable.Tuple{}
		outcome, _, err := c.cmp.Eval(&empty)
		if err != nil {
			continue // surfaces at runtime exactly as unplanned evaluation would
		}
		switch outcome {
		case ctable.PredTrue:
			c.foldTrue = true
		case ctable.PredFalse:
			return true, c.display + " is false"
		}
	}
	return false, ""
}

// rewritePushdown attaches single-table conjuncts to their scan as
// drop-only prefilters, remapped into the table's local column space, on
// every scan — a single-table query's too. The conjunct stays in the final
// filter: the compiled prefilter (ctable.ScanFilter) drops only rows a
// conjunct proves deterministically false on the stored cells and builds no
// atom, so symbolic atom conjunction keeps its source order and the final
// conditions are unchanged. The conjunct rewriteEqLookup made the scan's
// key is not pushed again: the lookup already reads only its candidates.
func rewritePushdown(conjs []*conjunct, scans []*lScan, offs []int, nt int, h Hints) {
	if h.NoPushdown {
		return
	}
	for _, c := range conjs {
		if !c.mappable || c.foldTrue || c.scanKey || len(c.cols) == 0 {
			continue
		}
		t := tableOf(c.cols[0], offs, nt)
		if t < 0 || tableOf(c.cols[len(c.cols)-1], offs, nt) != t {
			continue
		}
		local := make([]int, offs[t]+len(scans[t].schema))
		for i := range local {
			local[i] = i - offs[t]
		}
		scans[t].pre = append(scans[t].pre, lpred{
			cmp:     remapCompare(c.cmp, local),
			display: c.display,
		})
	}
}

// rewriteEqLookup gives each scan an equality lookup: the first conjunct,
// in source order, of the form col = constant or constant = col on that
// scan's table, where the constant — a literal or a bound placeholder — is
// core.Probeable (an int, a non-NaN float or a string). Like a pushed
// prefilter it only drops rows: the scan reads the index's candidates,
// which include every row whose comparison could hold or be symbolic, and
// the conjunct stays in the final filter, so row order, condition atoms and
// sampled bits are those of the full scan. It applies to single-table
// queries too, and is off under NoPushdown. It runs before
// rewritePushdown, which skips the conjunct marked scanKey.
func rewriteEqLookup(conjs []*conjunct, scans []*lScan, offs []int, h Hints) {
	if h.NoPushdown {
		return
	}
	for _, c := range conjs {
		if c.cmp.Op != cond.EQ {
			continue
		}
		col, lok := c.cmp.Left.(ctable.Col)
		lit, rok := c.cmp.Right.(ctable.Lit)
		if !lok || !rok {
			col, lok = c.cmp.Right.(ctable.Col)
			lit, rok = c.cmp.Left.(ctable.Lit)
		}
		if !lok || !rok || !core.Probeable(lit.V) {
			continue
		}
		t := tableOf(int(col), offs, len(offs))
		if scans[t].key == nil {
			scans[t].key = &lkey{col: int(col) - offs[t], val: lit.V, display: c.display}
			c.scanKey = true
		}
	}
}

// rewriteHashKeys marks a.x = b.y conjuncts as pairing keys of the
// left-deep join that brings in the later table. The conjunct also stays
// in the final filter: deterministically matched pairs re-evaluate it to
// PredTrue (no atom), while symbolic keys fall back to pair-with-everything
// at the join and receive their condition atom from the filter — identical
// conditions to the filtered cross product.
func rewriteHashKeys(conjs []*conjunct, offs []int, h Hints) {
	if h.NoHashJoin || len(offs) == 1 {
		return
	}
	nt := len(offs)
	for _, c := range conjs {
		if c.foldTrue || c.cmp.Op != cond.EQ {
			continue
		}
		l, lok := c.cmp.Left.(ctable.Col)
		r, rok := c.cmp.Right.(ctable.Col)
		if !lok || !rok {
			continue
		}
		lt := tableOf(int(l), offs, nt)
		rt := tableOf(int(r), offs, nt)
		if lt < 0 || rt < 0 || lt == rt {
			continue
		}
		// Orient: the key on the later table probes that table's build side.
		left, right := int(l), int(r)
		if lt > rt {
			left, right = right, left
			lt, rt = rt, lt
		}
		c.joinLvl = rt - 1
		c.keyLeft = left
		c.keyRight = right
	}
}

// rewritePrune narrows each scan to the columns the query actually reads
// (targets or staged aggregates, remaining conjuncts, join keys), remapping
// every compiled column reference into the pruned space. It returns the
// old-to-new global column map and the new per-table offsets. Pruning is
// skipped for single-table queries (the projection already narrows the
// result) and when any scalar resists analysis.
func rewritePrune(conjs []*conjunct, scans []*lScan, offs []int, proj *lProject, agg *lAggregate, h Hints) ([]int, []int) {
	nt := len(scans)
	width := 0
	for _, s := range scans {
		width += len(s.schema)
	}
	id := identityMap(width)
	if h.NoPrune || nt == 1 {
		return id, offs
	}

	needed := map[int]bool{}
	for _, c := range conjs {
		if c.foldTrue {
			continue
		}
		if !c.mappable {
			return id, offs
		}
		for _, col := range c.cols {
			needed[col] = true
		}
	}
	var scalars []ctable.Scalar
	if proj != nil {
		scalars = proj.targets
	} else {
		scalars = agg.staged
	}
	for _, s := range scalars {
		if !scalarCols(s, needed) {
			return id, offs
		}
	}
	if len(needed) == width {
		return id, offs
	}

	keep := sortedCols(needed)
	m := make([]int, width)
	for i := range m {
		m[i] = -1
	}
	newOffs := make([]int, nt)
	next := 0
	for t := range scans {
		newOffs[t] = next
		// Non-nil even when empty: a table contributing only multiplicity
		// and conditions prunes to zero-width rows (keep == nil means the
		// whole table is kept and stored tuples are emitted directly).
		local := make([]int, 0, len(scans[t].schema))
		for _, c := range keep {
			if c >= offs[t] && c < offs[t]+len(scans[t].schema) {
				local = append(local, c-offs[t])
			}
		}
		if len(local) == len(scans[t].schema) {
			local = nil
		}
		scans[t].keep = local
		if local == nil {
			// Every column of this table stays, needed or not; the new
			// layout keeps the table's full width.
			for lc := range scans[t].schema {
				m[offs[t]+lc] = next + lc
			}
			next += len(scans[t].schema)
		} else {
			for n, lc := range local {
				m[offs[t]+lc] = next + n
			}
			next += len(local)
		}
	}

	// Remap the filter comparisons and the output scalars. Scan prefilters
	// run in table-local space against the stored tuples and need no remap.
	for _, c := range conjs {
		if !c.foldTrue {
			c.cmp = remapCompare(c.cmp, m)
		}
	}
	if proj != nil {
		for i, s := range proj.targets {
			proj.targets[i] = remapScalar(s, m)
		}
	} else {
		for i, s := range agg.staged {
			agg.staged[i] = remapScalar(s, m)
		}
	}
	return m, newOffs
}

// tableOf returns the table index covering global column c, or -1.
func tableOf(c int, offs []int, nt int) int {
	for t := nt - 1; t >= 0; t-- {
		if c >= offs[t] {
			return t
		}
	}
	return -1
}
