// Physical operators, one per logical node: the batch-at-a-time relational
// engine. Operators exchange ctable.Batch column vectors through
// NextBatch(max), so the scan/filter/join spine pays interface dispatch and
// allocation per batch, not per row. Scan, Project and Join fill output
// batches drawn from ctable's batch pool and return them on Close, so a
// statement reuses the storage an earlier one left behind instead of
// regrowing columns through the demand ramp. Every operator is also a row
// Cursor (vecBase adapts NextBatch behind Next), which is how streaming
// Rows and the span cursor consume a plan; eager drain and the operators
// themselves pull batches.
//
// Three contracts are load-bearing; corpus_test.go holds every operator to
// them against recorded goldens (rows and per-operator rows=) and a naive
// reference evaluator (oracle_test.go):
//
//   - Row order: an operator emits rows in the order a one-row-at-a-time
//     evaluation of its input would — scans follow the table snapshot,
//     joins emit each probe row's matches in build-side input order before
//     moving to the next probe row, blocking operators (Aggregate, Distinct,
//     Sort) materialize their whole input and then compute.
//   - Need-driven pulling: NextBatch(max) never emits more than max rows
//     and never pulls more input than its own need. Filter pulls child
//     chunks sized by its remaining need (within a chunk of size s at most
//     s rows pass, so the need is never overshot), and joins under limit
//     pressure (a streaming LIMIT above, computed at lowering) pull probe
//     rows one at a time while buffering in-flight matches. EXPLAIN ANALYZE
//     rows= on every operator therefore depends only on the query, not on
//     the batch size, and per-row sampling beyond a LIMIT never runs.
//   - Emit-then-fail: a per-row error inside a batch is held back until
//     the rows preceding it have been emitted; the error surfaces on the
//     following call.
//
// Cancellation is checked once per batch boundary rather than per row.

package sql

import (
	"fmt"
	"io"
	"sort"
	"time"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
)

// vecBatchSize is the target number of rows per column batch.
const vecBatchSize = 1024

// batchCap sizes a blocking operator's output batch: the caller's need
// capped by the rows left to emit.
func batchCap(avail, max int) int {
	if avail < 0 || avail > max {
		return max
	}
	if avail < 1 {
		return 1
	}
	return avail
}

// vecOperator is a physical operator: it exchanges column batches with its
// parent, and — through the Next facade vecBase supplies — is a row Cursor
// as well.
type vecOperator interface {
	operator
	// NextBatch returns the next batch of at most max rows. It never
	// returns an empty batch: the stream ends with (nil, io.EOF), fails
	// with (nil, err). The batch is valid until the following NextBatch
	// or Close call on the same operator.
	NextBatch(max int) (*ctable.Batch, error)
}

// vecBase is the common core of the operators: operator metadata plus the
// row-cursor facade.
type vecBase struct {
	opBase
	// self is the embedding operator; set at construction so the facade
	// can reach its NextBatch.
	self vecOperator
	// cur / ri iterate the current batch for the row facade, row is the one
	// tuple it hands out, and served counts the rows handed out so far.
	cur    *ctable.Batch
	ri     int
	row    ctable.Tuple
	served int
}

// Next implements Cursor by iterating batches pulled from the embedding
// operator. The size of each pull follows the consumer's observed demand:
// it asks for as many rows as have already been consumed (one at first, at
// most vecBatchSize), so requests run 1, 1, 2, 4, 8, ... A row-at-a-time
// consumer has shown demand for exactly one row when it first calls Next,
// and every chunk it exhausts is evidence it wants the rest; the first row
// of a streamed result therefore costs one row of per-row sampling (conf(),
// expectation()) instead of a full batch, no row waits on more rows than
// were consumed before it, and a consumer that reads on is at full batches
// once it has read vecBatchSize rows.
//
// The returned tuple is a buffer refilled by the following call (the
// validity Cursor.Next documents), so a streamed row costs no allocation
// here. When the statement's execute clock is attached (spanCursor), each
// batch pull is timed, not each row.
func (b *vecBase) Next() (*ctable.Tuple, error) {
	for b.cur == nil || b.ri >= b.cur.Len() {
		var t0 time.Time
		if b.execute != nil {
			//pipvet:allow detsource span-trace telemetry, never feeds sampled state
			t0 = time.Now()
		}
		batch, err := b.self.NextBatch(min(max(b.served, 1), vecBatchSize))
		if b.execute != nil {
			//pipvet:allow detsource span-trace telemetry, never feeds sampled state
			*b.execute += time.Since(t0)
		}
		if err != nil {
			b.cur = nil
			return nil, err
		}
		b.cur, b.ri = batch, 0
	}
	if b.row.Values == nil {
		b.row.Values = make([]ctable.Value, len(b.cur.Cols))
	}
	b.row.Cond = b.cur.GatherRow(b.ri, b.row.Values)
	b.ri++
	b.served++
	return &b.row, nil
}

// shut ends the row facade, hands the operator's pooled output batch (if
// any) back to the batch pool and closes the children. Dropping the
// facade's batch makes Next after Close report io.EOF rather than read
// storage another statement may be filling.
func (b *vecBase) shut(out **ctable.Batch) error {
	b.cur = nil
	if out != nil && *out != nil {
		(*out).Release()
		*out = nil
	}
	return b.closeKids()
}

// emitBatch closes the timing window and counts the emitted batch, passing
// the pair through for a tail-call from NextBatch. Row counting happens
// here (not in the Next facade), so rows= aggregates identically whether
// the plan is consumed row-wise or batch-wise.
func (b *vecBase) emitBatch(t0 time.Time, batch *ctable.Batch, err error) (*ctable.Batch, error) {
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window, never feeds sampled state
		b.stats.elapsed += time.Since(t0)
	}
	if batch != nil {
		b.stats.rows += int64(batch.Len())
		b.stats.batches++
	}
	return batch, err
}

// materializeVec drains an operator into a tuple slice. Rows are
// gathered out of the batches (batch memory is producer-owned and reused),
// so the returned tuples are stable for the query's duration. Each batch is
// gathered through one flat allocation — the per-row Values slices are
// disjoint subslices with clamped capacity.
func materializeVec(op vecOperator, into *[]ctable.Tuple) error {
	for {
		b, err := op.NextBatch(vecBatchSize)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		gatherBatch(b, into)
	}
}

// materializeVecBatch drains an operator into one dense
// column-major batch (no selection vector). Cells are copied out of the
// producer-owned batches, so the result is stable for the query's duration;
// dense input batches copy over one bulk append per column.
func materializeVecBatch(op vecOperator, ncols int) (*ctable.Batch, error) {
	out := ctable.NewBatch(ncols, 0)
	for {
		b, err := op.NextBatch(vecBatchSize)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if b.Sel == nil {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c]...)
			}
			out.Conds = append(out.Conds, b.Conds...)
			continue
		}
		for _, phys := range b.Sel {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c][phys])
			}
			out.Conds = append(out.Conds, b.Conds[phys])
		}
	}
}

// gatherBatch appends every live row of b to into as stable tuples, using a
// single backing allocation for the batch's cells.
func gatherBatch(b *ctable.Batch, into *[]ctable.Tuple) {
	n, w := b.Len(), len(b.Cols)
	if n == 0 {
		return
	}
	flat := make([]ctable.Value, n*w)
	for k := 0; k < n; k++ {
		vals := flat[k*w : (k+1)*w : (k+1)*w]
		c := b.GatherRow(k, vals)
		*into = append(*into, ctable.Tuple{Values: vals, Cond: c})
	}
}

// lowerVecNode lowers a logical node onto its operator, recursively.
// pressure marks subtrees under a streaming LIMIT with no blocking operator
// in between: joins there pull probe rows one at a time, so no input row is
// pulled that the limit does not need. Blocking operators (Sort, Distinct,
// Aggregate) drain their input fully whatever sits above them and reset the
// flag for their children.
func lowerVecNode(env execEnv, n lnode, timed, pressure bool) (vecOperator, error) {
	mk := func(cols []string, kids ...operator) vecBase {
		return vecBase{opBase: opBase{name: n.op(), detail: n.detail(), cols: cols, kids: kids, timed: timed}}
	}
	switch t := n.(type) {
	case *lScan:
		var pre *ctable.ScanFilter
		if len(t.pre) > 0 {
			cmps := make([]ctable.Compare, len(t.pre))
			for i, p := range t.pre {
				cmps[i] = p.cmp
			}
			pre = ctable.CompileScanFilter(cmps)
		}
		o := &vecScanOp{vecBase: mk(t.outCols()), env: env, tuples: t.tuples, keep: t.keep, pre: pre,
			keyed: t.key != nil, cand: t.cand}
		o.self = o
		return o, nil
	case *lJoin:
		left, err := lowerVecNode(env, t.left, timed, pressure)
		if err != nil {
			return nil, err
		}
		right, err := lowerVecNode(env, t.right, timed, false)
		if err != nil {
			return nil, err
		}
		cols := append(append([]string{}, left.Columns()...), right.Columns()...)
		o := &vecJoinOp{vecBase: mk(cols, left, right), env: env,
			left: left, right: right, hash: t.hash,
			leftKeys: t.leftKeys, rightKeys: t.rightKeys,
			nLeft: len(left.Columns()), pressure: pressure}
		o.self = o
		return o, nil
	case *lFilter:
		child, err := lowerVecNode(env, t.input, timed, pressure)
		if err != nil {
			return nil, err
		}
		pred := make(ctable.AndPred, len(t.preds))
		for i, p := range t.preds {
			pred[i] = p.cmp
		}
		o := &vecFilterOp{vecBase: mk(child.Columns(), child), child: child, pred: pred}
		o.predI = o.pred // boxed once; ApplyPredicate per row would re-box
		o.bp, _ = ctable.CompileBatchPred(pred)
		o.self = o
		return o, nil
	case *lProject:
		child, err := lowerVecNode(env, t.input, timed, pressure)
		if err != nil {
			return nil, err
		}
		b := mk(t.names, child)
		oenv := opScope(env, &b.opBase)
		o := &vecProjectOp{vecBase: b, env: oenv, child: child, spec: t}
		o.self = o
		return o, nil
	case *lAggregate:
		child, err := lowerVecNode(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		b := mk(t.outNames, child)
		oenv := opScope(env, &b.opBase)
		o := &vecAggOp{vecBase: b, env: oenv, child: child, spec: t}
		o.self = o
		return o, nil
	case *lDistinct:
		child, err := lowerVecNode(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		o := &vecDistinctOp{vecBase: mk(child.Columns(), child), child: child}
		o.self = o
		return o, nil
	case *lSort:
		child, err := lowerVecNode(env, t.input, timed, false)
		if err != nil {
			return nil, err
		}
		o := &vecSortOp{vecBase: mk(child.Columns(), child), child: child, col: t.col, colName: t.name, desc: t.desc}
		o.self = o
		return o, nil
	case *lLimit:
		child, err := lowerVecNode(env, t.input, timed, true)
		if err != nil {
			return nil, err
		}
		o := &vecLimitOp{vecBase: mk(child.Columns(), child), child: child, remaining: t.n}
		o.self = o
		return o, nil
	case *lEmpty:
		o := &vecEmptyOp{vecBase: mk(nil)}
		o.self = o
		return o, nil
	default:
		return nil, fmt.Errorf("sql: unknown plan node %T", n)
	}
}

// ---------------------------------------------------------------------------
// Scan

// vecScanOp iterates a table snapshot in order — every row, or under an
// equality lookup only the index's candidate rows: it fills a column batch
// with up to max kept rows, skipping tuples with trivially false conditions,
// applying the pushed-down drop-only prefilter to the stored cells, and
// projecting the kept columns; it reads no snapshot row past the one that
// fills the batch. The prefilter keeps every row it cannot decide, so
// evaluation errors and condition atoms are the final Filter's, which
// re-evaluates the same comparisons on every surviving row; rows the
// prefilter drops (or starves downstream of) follow the rewriter's
// error-scope contract (see rewrite.go). The output batch comes from the
// batch pool, is reused across calls and goes back on Close.
type vecScanOp struct {
	vecBase
	env    execEnv
	tuples []ctable.Tuple
	keep   []int
	pre    *ctable.ScanFilter // nil when nothing was pushed
	keyed  bool
	cand   core.EqCandidates // the equality lookup's rows when keyed
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements vecOperator.
func (o *vecScanOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if err := o.env.ctxErr(); err != nil {
		o.done = true
		return o.emitBatch(t0, nil, err)
	}
	if o.out == nil {
		o.out = ctable.GetBatch(len(o.cols))
	}
	o.out.Reset()
	if o.keyed {
		// The equality lookup runs the full scan's loop over each candidate
		// row in turn.
		for o.out.Len() < max {
			r := o.cand.Next()
			if r < 0 {
				break
			}
			o.i = r
			o.scanRows(r+1, max)
		}
	} else {
		o.scanRows(len(o.tuples), max)
	}
	if o.out.Len() == 0 {
		o.done = true
		return o.emitBatch(t0, nil, io.EOF)
	}
	return o.emitBatch(t0, o.out, nil)
}

// scanRows appends the kept rows among o.tuples[o.i:end] to the output
// batch, stopping once it holds max rows.
func (o *vecScanOp) scanRows(end, max int) {
	for o.out.Len() < max && o.i < end {
		t := &o.tuples[o.i]
		o.i++
		if t.Cond.IsFalse() {
			continue
		}
		if o.pre != nil && o.pre.Drops(t) {
			continue
		}
		if o.keep == nil {
			o.out.AppendRow(t.Values, t.Cond)
			continue
		}
		for n, c := range o.keep {
			o.out.Cols[n] = append(o.out.Cols[n], t.Values[c])
		}
		o.out.Conds = append(o.out.Conds, t.Cond)
	}
}

// Close implements Cursor.
func (o *vecScanOp) Close() error {
	o.done = true
	return o.shut(&o.out)
}

// ---------------------------------------------------------------------------
// Filter

// vecFilterOp applies the remaining WHERE conjuncts in source order with
// ApplyPredicate's semantics: deterministic failures drop the row, symbolic
// comparisons conjoin condition atoms, and conditions proven inconsistent
// by Algorithm 3.2 are removed. Input order is kept. It is zero-copy:
// surviving rows are recorded in the child batch's selection vector (their
// possibly rewritten conditions overwrite the batch's condition slots), and
// the child batch itself is passed downstream. The child chunk size equals
// the caller's need, so the filter never pulls an input row past the one
// that satisfies it. A row whose predicate fails to evaluate ends the
// stream with that error after the rows before it have been emitted.
type vecFilterOp struct {
	vecBase
	child   vecOperator
	pred    ctable.AndPred
	predI   ctable.Predicate // pred boxed once for rows the columnar path cannot decide
	bp      *ctable.BatchPred
	row     []ctable.Value
	sel     []int
	pendErr error
	done    bool
}

// NextBatch implements vecOperator.
func (o *vecFilterOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emitBatch(t0, nil, o.pendErr)
	}
	if o.row == nil {
		o.row = make([]ctable.Value, len(o.cols))
	}
	for {
		b, err := o.child.NextBatch(max)
		if err != nil {
			o.done = true
			return o.emitBatch(t0, nil, err)
		}
		n := b.Len()
		sel := o.sel[:0]
		var rowErr error
		for k := 0; k < n; k++ {
			phys := b.RowIdx(k)
			if o.bp != nil {
				// Columnar fast path: fully deterministic rows are decided
				// straight from the batch columns; a kept row's condition is
				// untouched, exactly as ApplyPredicate leaves PredTrue rows.
				if keep, ok := o.bp.EvalRow(b, phys); ok {
					if keep {
						sel = append(sel, phys)
					}
					continue
				}
			}
			c := b.GatherRow(k, o.row)
			t := ctable.Tuple{Values: o.row, Cond: c}
			kept, keep, err := ctable.ApplyPredicate(&t, o.predI)
			if err != nil {
				rowErr = err
				break
			}
			if !keep {
				continue
			}
			b.Conds[phys] = kept.Cond
			sel = append(sel, phys)
		}
		if rowErr != nil && len(sel) == 0 {
			o.done = true
			return o.emitBatch(t0, nil, rowErr)
		}
		if len(sel) > 0 {
			o.pendErr = rowErr
			o.sel = sel
			b.Sel = sel
			return o.emitBatch(t0, b, nil)
		}
		o.sel = sel
		// Whole chunk filtered out: pull the next one.
	}
}

// Close implements Cursor.
func (o *vecFilterOp) Close() error {
	o.done = true
	return o.shut(nil)
}

// ---------------------------------------------------------------------------
// Project

// vecProjectOp computes the SELECT targets and the per-row probability
// functions (finishProject, sampling included) for each input row, in input
// order, into a dense pooled output batch reused across calls. Each row is
// gathered into the operator's own input tuple and projected into its own
// result row, so a deterministic row allocates nothing. Rows map 1:1, so
// the child chunk size is the caller's need and no row is sampled that the
// caller did not ask for. A row that fails ends the stream with that error
// after the rows before it have been emitted.
type vecProjectOp struct {
	vecBase
	env     execEnv
	child   vecOperator
	spec    *lProject
	in      ctable.Tuple   // the input row being projected
	res     []ctable.Value // its projected cells
	out     *ctable.Batch
	pendErr error
	done    bool
}

// NextBatch implements vecOperator.
func (o *vecProjectOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emitBatch(t0, nil, o.pendErr)
	}
	b, err := o.child.NextBatch(max)
	if err != nil {
		o.done = true
		return o.emitBatch(t0, nil, err)
	}
	if o.out == nil {
		o.in.Values = make([]ctable.Value, len(o.child.Columns()))
		o.res = make([]ctable.Value, len(o.spec.targets))
		o.out = ctable.GetBatch(len(o.cols))
	}
	o.out.Reset()
	n := b.Len()
	for k := 0; k < n; k++ {
		o.in.Cond = b.GatherRow(k, o.in.Values)
		res, err := finishProject(o.env, o.spec, &o.in, o.res)
		if err != nil {
			if o.out.Len() == 0 {
				o.done = true
				return o.emitBatch(t0, nil, err)
			}
			o.pendErr = err
			break
		}
		o.out.AppendRow(res.Values, res.Cond)
	}
	return o.emitBatch(t0, o.out, nil)
}

// Close implements Cursor.
func (o *vecProjectOp) Close() error {
	o.done = true
	return o.shut(&o.out)
}

// ---------------------------------------------------------------------------
// Joins

// vecJoinOp pairs each probe (left) row with build (right) rows, conjoining
// their conditions and dropping pairs whose condition is trivially false.
// The build side materializes once, on the first call. With hash set, a
// probe row pairs with the build rows whose deterministic key columns equal
// its own, plus every build row with a symbolic key cell; a probe row with
// a symbolic key cell pairs with every build row — those pairs reach the
// final Filter, which conjoins the comparison as a condition atom. Keys of
// incomparable kinds (a string probing a numeric column) simply never pair:
// the "incomparable values" error the cross product would raise on those
// pairs falls under the rewriter's error-scope contract (rewrite.go).
// Without hash it is the filtered cross product. Either way output order is
// probe order, then build-side input order within a probe row — the order
// of the cross product. Probe rows stream through in chunks (single rows
// under limit pressure) and in-flight matches are buffered across NextBatch
// calls, so no probe row is pulled before its predecessors' matches have
// been delivered.
//
// The hash build writes every deterministic key into one byte arena,
// converted to a string once, and indexes rows by a map from key to the
// first build row with that key plus a next chain linking each row to the
// following one with the same key; the chain is built back to front, so
// every bucket lists its rows in build order. Building costs a handful of
// allocations whatever the number of build rows.
type vecJoinOp struct {
	vecBase
	env                 execEnv
	left, right         vecOperator
	hash                bool
	leftKeys, rightKeys []int
	nLeft               int
	pressure            bool

	bb            *ctable.Batch    // build side, dense column-major
	anyBuildFalse bool             // some build row has a false condition
	heads         map[string]int32 // key → first build row with that key
	next          []int32          // build row → next row with its key, or -1
	symb          []int            // build rows with a symbolic key cell
	keyBuf        []byte
	matchBuf      []int // backs matches for deterministic probe keys
	built         bool

	pb        *ctable.Batch // current probe batch
	pi        int           // next logical probe row in pb
	pphys     int           // physical index of the in-flight probe row
	probeCond cond.Condition
	probing   bool // pphys/matches hold an in-flight probe row
	matches   []int
	all       bool
	mi        int

	out     *ctable.Batch
	pendErr error
	done    bool
}

// NextBatch implements vecOperator.
func (o *vecJoinOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if o.pendErr != nil {
		o.done = true
		return o.emitBatch(t0, nil, o.pendErr)
	}
	if err := o.env.ctxErr(); err != nil {
		o.done = true
		return o.emitBatch(t0, nil, err)
	}
	if !o.built {
		bb, err := materializeVecBatch(o.right, len(o.right.Columns()))
		if err != nil {
			o.done = true
			return o.emitBatch(t0, nil, err)
		}
		o.bb = bb
		for _, c := range bb.Conds {
			if c.IsFalse() {
				o.anyBuildFalse = true
				break
			}
		}
		if o.hash {
			o.buildIndex()
		}
		o.built = true
	}
	if o.out == nil {
		o.out = ctable.GetBatch(len(o.cols))
	}
	o.out.Reset()
	for o.out.Len() < max {
		if !o.probing {
			// Advance to the next probe row, pulling a new chunk when the
			// current batch is exhausted.
			if o.pb == nil || o.pi >= o.pb.Len() {
				chunk := vecBatchSize
				if o.pressure {
					chunk = 1
				}
				b, err := o.left.NextBatch(chunk)
				if err != nil {
					if o.out.Len() > 0 {
						o.pendErr = err
						return o.emitBatch(t0, o.out, nil)
					}
					o.done = true
					return o.emitBatch(t0, nil, err)
				}
				o.pb, o.pi = b, 0
			}
			// The in-flight probe row is read in place: pb stays valid until
			// the next left.NextBatch, which only happens after every row of
			// this batch has finished probing.
			o.pphys = o.pb.RowIdx(o.pi)
			o.probeCond = o.pb.Conds[o.pphys]
			o.pi++
			o.mi = 0
			o.all = !o.hash
			o.matches = nil
			if o.hash {
				kb, ok := o.keyBuf[:0], true
				for _, c := range o.leftKeys {
					v := o.pb.Cols[c][o.pphys]
					if v.IsSymbolic() {
						ok = false
						break
					}
					kb = v.AppendBinaryKey(kb)
				}
				o.keyBuf = kb
				if ok {
					o.matches = o.chainMatches(kb)
				} else {
					o.all = true
				}
			}
			o.probing = true
		}
		n := len(o.matches)
		if o.all {
			n = len(o.bb.Conds)
		}
		if o.all && !o.anyBuildFalse && o.probeCond.IsTrivialTrue() {
			// Bulk run: every pair of this cross-product probe row survives,
			// and each pair's condition is exactly the build row's (And with
			// a trivially-true probe condition is the identity), so right
			// columns and conditions copy over one bulk append per column.
			m := n - o.mi
			if r := max - o.out.Len(); m > r {
				m = r
			}
			lo, hi := o.mi, o.mi+m
			for c := 0; c < o.nLeft; c++ {
				v := o.pb.Cols[c][o.pphys]
				for i := 0; i < m; i++ {
					o.out.Cols[c] = append(o.out.Cols[c], v)
				}
			}
			for c := o.nLeft; c < len(o.out.Cols); c++ {
				o.out.Cols[c] = append(o.out.Cols[c], o.bb.Cols[c-o.nLeft][lo:hi]...)
			}
			o.out.Conds = append(o.out.Conds, o.bb.Conds[lo:hi]...)
			o.mi = hi
		} else {
			for o.mi < n && o.out.Len() < max {
				j := o.mi
				if !o.all {
					j = o.matches[o.mi]
				}
				o.mi++
				nc := o.probeCond.And(o.bb.Conds[j])
				if nc.IsFalse() {
					continue
				}
				for c := 0; c < o.nLeft; c++ {
					o.out.Cols[c] = append(o.out.Cols[c], o.pb.Cols[c][o.pphys])
				}
				for c := o.nLeft; c < len(o.out.Cols); c++ {
					o.out.Cols[c] = append(o.out.Cols[c], o.bb.Cols[c-o.nLeft][j])
				}
				o.out.Conds = append(o.out.Conds, nc)
			}
		}
		if o.mi >= n {
			o.probing = false
		}
	}
	return o.emitBatch(t0, o.out, nil)
}

// buildIndex builds the hash index over the build batch's key columns.
func (o *vecJoinOp) buildIndex() {
	n := len(o.bb.Conds)
	// ends[i] is where row i's key ends in the arena; a row with a
	// symbolic key cell writes no bytes, and a deterministic key is never
	// empty.
	ends := make([]int, n)
	var arena []byte
	for i := 0; i < n; i++ {
		start := len(arena)
		for _, c := range o.rightKeys {
			v := o.bb.Cols[c][i]
			if v.IsSymbolic() {
				arena = arena[:start]
				o.symb = append(o.symb, i)
				break
			}
			arena = v.AppendBinaryKey(arena)
		}
		ends[i] = len(arena)
	}
	keys := string(arena)
	o.heads = make(map[string]int32, n)
	o.next = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		if start == ends[i] {
			continue
		}
		k := keys[start:ends[i]]
		if h, ok := o.heads[k]; ok {
			o.next[i] = h
		} else {
			o.next[i] = -1
		}
		o.heads[k] = int32(i)
	}
}

// chainMatches lists the build rows a deterministic probe key pairs with,
// in build order: the key's chain merged with the rows whose key is
// symbolic. The list reuses one buffer across probe rows.
func (o *vecJoinOp) chainMatches(key []byte) []int {
	head, ok := o.heads[string(key)]
	if !ok {
		head = -1
	}
	m, symb := o.matchBuf[:0], o.symb
	for j := head; j >= 0; j = o.next[j] {
		for len(symb) > 0 && symb[0] < int(j) {
			m = append(m, symb[0])
			symb = symb[1:]
		}
		m = append(m, int(j))
	}
	m = append(m, symb...)
	o.matchBuf = m
	return m
}

// Close implements Cursor.
func (o *vecJoinOp) Close() error {
	o.done = true
	return o.shut(&o.out)
}

// ---------------------------------------------------------------------------
// Blocking operators: Aggregate, Distinct, Sort

// emitTable streams a materialized result table in batches of at most max
// rows, tracking the emission cursor in *i.
func emitTable(vb *vecBase, out **ctable.Batch, result *ctable.Table, i *int, max int) *ctable.Batch {
	if *i >= len(result.Tuples) {
		return nil
	}
	if *out == nil {
		*out = ctable.NewBatch(len(vb.cols), batchCap(len(result.Tuples)-*i, max))
	}
	(*out).Reset()
	for (*out).Len() < max && *i < len(result.Tuples) {
		(*out).AppendTuple(&result.Tuples[*i])
		*i++
	}
	return *out
}

// vecAggOp is blocking: on the first call it drains its child, stages
// [group keys..., agg args...] per row (stageAggRow), partitions by key and
// evaluates every group's expectation aggregates (computeAgg); it then
// emits the result — one row per group, in first-occurrence order of the
// keys — in batches of the caller's need.
type vecAggOp struct {
	vecBase
	env    execEnv
	child  vecOperator
	spec   *lAggregate
	result *ctable.Table
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements vecOperator.
func (o *vecAggOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if o.result == nil {
		a := o.spec
		sch := make(ctable.Schema, len(a.stagedNames))
		for i, n := range a.stagedNames {
			sch[i] = ctable.Column{Name: n}
		}
		staged := &ctable.Table{Name: "agg_input", Schema: sch}
		row := make([]ctable.Value, len(o.child.Columns()))
		for {
			b, err := o.child.NextBatch(vecBatchSize)
			if err == io.EOF {
				break
			}
			if err != nil {
				o.done = true
				return o.emitBatch(t0, nil, err)
			}
			for k := 0; k < b.Len(); k++ {
				c := b.GatherRow(k, row)
				t := ctable.Tuple{Values: row, Cond: c}
				st, err := stageAggRow(a, &t)
				if err != nil {
					o.done = true
					return o.emitBatch(t0, nil, err)
				}
				staged.Tuples = append(staged.Tuples, st)
			}
		}
		res, err := computeAgg(o.env, a, staged)
		if err != nil {
			o.done = true
			return o.emitBatch(t0, nil, err)
		}
		o.result = res
	}
	b := emitTable(&o.vecBase, &o.out, o.result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emitBatch(t0, nil, io.EOF)
	}
	return o.emitBatch(t0, b, nil)
}

// Close implements Cursor.
func (o *vecAggOp) Close() error {
	o.done = true
	return o.shut(nil)
}

// vecDistinctOp is blocking: on the first call it materializes its input
// and coalesces duplicate data tuples, OR-ing their conditions into DNF
// (ctable.Distinct, first-occurrence order preserved); it then emits the
// result in batches of the caller's need.
type vecDistinctOp struct {
	vecBase
	child  vecOperator
	result *ctable.Table
	out    *ctable.Batch
	i      int
	done   bool
}

// NextBatch implements vecOperator.
func (o *vecDistinctOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if o.result == nil {
		var rows []ctable.Tuple
		if err := materializeVec(o.child, &rows); err != nil {
			o.done = true
			return o.emitBatch(t0, nil, err)
		}
		o.result = ctable.Distinct(&ctable.Table{Tuples: rows})
	}
	b := emitTable(&o.vecBase, &o.out, o.result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emitBatch(t0, nil, io.EOF)
	}
	return o.emitBatch(t0, b, nil)
}

// Close implements Cursor.
func (o *vecDistinctOp) Close() error {
	o.done = true
	return o.shut(nil)
}

// vecSortOp is blocking: on the first call it materializes its input and
// orders it by one output column with a stable sort, so ties keep input
// order; a symbolic cell in that column fails the query. It then emits the
// result in batches of the caller's need.
type vecSortOp struct {
	vecBase
	child   vecOperator
	col     int
	colName string
	desc    bool
	rows    []ctable.Tuple
	out     *ctable.Batch
	sorted  bool
	i       int
	done    bool
}

// NextBatch implements vecOperator.
func (o *vecSortOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done {
		return o.emitBatch(t0, nil, io.EOF)
	}
	if !o.sorted {
		if err := materializeVec(o.child, &o.rows); err != nil {
			o.done = true
			return o.emitBatch(t0, nil, err)
		}
		var sortErr error
		sort.SliceStable(o.rows, func(i, j int) bool {
			c, ok := o.rows[i].Values[o.col].Compare(o.rows[j].Values[o.col])
			if !ok {
				sortErr = fmt.Errorf("sql: ORDER BY over symbolic column %s", o.colName)
				return false
			}
			if o.desc {
				return c > 0
			}
			return c < 0
		})
		if sortErr != nil {
			o.done = true
			return o.emitBatch(t0, nil, sortErr)
		}
		o.sorted = true
	}
	result := &ctable.Table{Tuples: o.rows}
	b := emitTable(&o.vecBase, &o.out, result, &o.i, max)
	if b == nil {
		o.done = true
		return o.emitBatch(t0, nil, io.EOF)
	}
	return o.emitBatch(t0, b, nil)
}

// Close implements Cursor.
func (o *vecSortOp) Close() error {
	o.done = true
	return o.shut(nil)
}

// ---------------------------------------------------------------------------
// Limit / Result

// vecLimitOp truncates the stream after n rows. It forwards its remaining
// budget as the child's chunk size, so upstream operators stop being pulled
// the moment the limit fills and per-row sampling beyond it never runs.
type vecLimitOp struct {
	vecBase
	child     vecOperator
	remaining int
	done      bool
}

// NextBatch implements vecOperator.
func (o *vecLimitOp) NextBatch(max int) (*ctable.Batch, error) {
	t0 := o.begin()
	if o.done || o.remaining <= 0 {
		o.done = true
		return o.emitBatch(t0, nil, io.EOF)
	}
	n := max
	if o.remaining < n {
		n = o.remaining
	}
	b, err := o.child.NextBatch(n)
	if err != nil {
		o.done = true
		return o.emitBatch(t0, nil, err)
	}
	b = b.Head(n)
	o.remaining -= b.Len()
	return o.emitBatch(t0, b, nil)
}

// Close implements Cursor.
func (o *vecLimitOp) Close() error {
	o.done = true
	return o.shut(nil)
}

// vecEmptyOp is the zero-row relation of a constant-false WHERE.
type vecEmptyOp struct {
	vecBase
}

// NextBatch implements vecOperator.
func (o *vecEmptyOp) NextBatch(int) (*ctable.Batch, error) {
	return nil, io.EOF
}

// Close implements Cursor.
func (o *vecEmptyOp) Close() error { return nil }
