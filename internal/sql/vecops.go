// Physical operators, one per logical node: the batch-at-a-time relational
// engine. Operators exchange ctable.Batch column vectors through
// NextBatch(max), so the scan/filter/join spine pays interface dispatch and
// allocation per batch, not per row.
//
// There is one operator type. Every operator embeds vecBase, which owns the
// stream's bookkeeping: end of stream, a held error, the ANALYZE timing
// window, row and batch counting, the "execute" clock of a statement's
// root, the pooled output batch, Close, and the row Cursor facade (Next),
// which is how a streamed statement is consumed. An operator supplies only
// its own step, next(max). Scan, Project and Join fill output batches drawn
// from ctable's batch pool, which Close hands back, so a statement reuses
// the storage an earlier one left behind instead of regrowing columns
// through the demand ramp. Aggregate, Distinct, Sort, the constant-false
// Result and the cursor of a statement that is not a SELECT are one
// operator, vecTableOp: it computes a c-table on its first pull and emits
// it in batches of the caller's need.
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
//   - Emit-then-fail: a step that fails at a row returns the rows before it
//     together with the error; vecBase emits the rows and returns the error
//     on the following pull, then io.EOF (cursor_test.go pins this).
//
// Cancellation is checked once per batch boundary rather than per row.

package sql

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"pip/internal/cond"
	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/obs"
)

// vecBatchSize is the target number of rows per column batch.
const vecBatchSize = 1024

// opStats holds per-operator execution counters for EXPLAIN ANALYZE.
type opStats struct {
	rows    int64
	batches int64         // column batches emitted (NextBatch calls that returned rows)
	elapsed time.Duration // cumulative: includes time spent in child operators
}

// operator is a physical plan node: a row Cursor that also exchanges column
// batches with its parent. Every operator embeds vecBase, which implements
// all of it around the operator's own next.
type operator interface {
	Cursor
	// NextBatch returns the next batch of at most max rows. It never
	// returns an empty batch: the stream ends with (nil, io.EOF), fails
	// with (nil, err). The batch is valid until the following NextBatch
	// or Close call on the same operator.
	NextBatch(max int) (*ctable.Batch, error)
	// next is the operator's own step: a batch of at most max rows. Rows
	// returned together with an error are emitted and the error is held for
	// the following pull; no rows and no error end the stream.
	next(max int) (*ctable.Batch, error)
	base() *vecBase
}

// vecBase is the part of an operator that is the same for all of them: plan
// metadata, counters and the stream's bookkeeping.
type vecBase struct {
	name   string
	detail string
	cols   []string
	kids   []operator
	stats  opStats
	// samp, set only on operators that invoke the sampler (Project,
	// Aggregate), scopes their sampler work for EXPLAIN ANALYZE's samples=
	// / batches= / accept= annotations. It chains to the statement scope.
	samp *obs.SamplerStats
	// qs is the statement's trace on the cursor QueryContext returns, for
	// Samples.
	qs *obs.QueryStats
	// timed runs the timing window: on every operator under ANALYZE, and on
	// a SELECT's root, whose window is the trace's "execute" phase. execute,
	// set on that root, records the window into qs when the stream ends.
	timed, execute bool
	// self is the embedding operator, whose next NextBatch runs.
	self operator
	// out is the operator's pooled output batch, if it takes one.
	out *ctable.Batch
	// held is what the next pull returns: the error of a step that also
	// returned rows, or io.EOF once the stream has ended.
	held error
	// cur / ri iterate the current batch for the row facade, row is the one
	// tuple it hands out, and served counts the rows handed out so far.
	cur    *ctable.Batch
	ri     int
	row    ctable.Tuple
	served int
}

func (b *vecBase) base() *vecBase { return b }

// Columns implements Cursor.
func (b *vecBase) Columns() []string { return b.cols }

// NextBatch implements operator by running the embedding operator's step.
// Rows are counted here, so rows= aggregates identically whether the plan
// is consumed row-wise or batch-wise.
func (b *vecBase) NextBatch(max int) (*ctable.Batch, error) {
	if err := b.held; err != nil {
		b.end()
		return nil, err
	}
	var t0 time.Time
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window and execute clock, never feed sampled state
		t0 = time.Now()
	}
	batch, err := b.self.next(max)
	if b.timed {
		//pipvet:allow detsource ANALYZE timing window and execute clock, never feed sampled state
		b.stats.elapsed += time.Since(t0)
	}
	if batch == nil || batch.Len() == 0 {
		if err == nil {
			err = io.EOF
		}
		b.end()
		return nil, err
	}
	b.stats.rows += int64(batch.Len())
	b.stats.batches++
	b.held = err
	return batch, nil
}

// end marks the stream over and records a root's "execute" phase: once,
// whether the stream reached io.EOF, failed, or was closed early.
func (b *vecBase) end() {
	b.held = io.EOF
	if b.execute {
		b.execute = false
		b.qs.AddPhase("execute", b.stats.elapsed)
	}
}

// Next implements Cursor by iterating batches pulled from the operator. The
// size of each pull follows the consumer's observed demand: it asks for as
// many rows as have already been consumed (one at first, at most
// vecBatchSize), so requests run 1, 1, 2, 4, 8, ... A row-at-a-time
// consumer has shown demand for exactly one row when it first calls Next,
// and every chunk it exhausts is evidence it wants the rest; the first row
// of a streamed result therefore costs one row of per-row sampling (conf(),
// expectation()) instead of a full batch, no row waits on more rows than
// were consumed before it, and a consumer that reads on is at full batches
// once it has read vecBatchSize rows.
//
// The returned tuple is a buffer refilled by the following call (the
// validity Cursor.Next documents), so a streamed row costs no allocation
// here.
func (b *vecBase) Next() (*ctable.Tuple, error) {
	for b.cur == nil || b.ri >= b.cur.Len() {
		batch, err := b.NextBatch(min(max(b.served, 1), vecBatchSize))
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

// Close implements Cursor: it ends the stream, hands the pooled output
// batch (if any) back to the batch pool and closes the children, keeping
// the first error. Dropping the facade's batch makes Next after Close
// report io.EOF rather than read storage another statement may be filling.
func (b *vecBase) Close() error {
	b.cur = nil
	if b.out != nil {
		b.out.Release()
		b.out = nil
	}
	b.end()
	var first error
	for _, k := range b.kids {
		if err := k.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// physPlan is a lowered, executable plan.
type physPlan struct {
	root operator
	name string // result table name
}

// drain runs the plan to completion, materializing the result c-table —
// the eager execution path shares the streaming operator pipeline.
func (p *physPlan) drain() (*ctable.Table, error) {
	defer p.root.Close()
	out := ctable.New(p.name, p.root.Columns()...)
	if err := materializeVec(p.root, &out.Tuples); err != nil {
		return nil, err
	}
	return out, nil
}

// eachBatch pulls an operator to its end in full batches, handing each
// to f.
func eachBatch(op operator, f func(*ctable.Batch) error) error {
	for {
		b, err := op.NextBatch(vecBatchSize)
		if err == io.EOF {
			return nil
		}
		if err == nil {
			err = f(b)
		}
		if err != nil {
			return err
		}
	}
}

// materializeVec drains an operator into a tuple slice. Rows are
// gathered out of the batches (batch memory is producer-owned and reused),
// so the returned tuples are stable for the query's duration. Each batch is
// gathered through one flat allocation — the per-row Values slices are
// disjoint subslices with clamped capacity.
func materializeVec(op operator, into *[]ctable.Tuple) error {
	return eachBatch(op, func(b *ctable.Batch) error {
		n, w := b.Len(), len(b.Cols)
		flat := make([]ctable.Value, n*w)
		for k := 0; k < n; k++ {
			vals := flat[k*w : (k+1)*w : (k+1)*w]
			c := b.GatherRow(k, vals)
			*into = append(*into, ctable.Tuple{Values: vals, Cond: c})
		}
		return nil
	})
}

// materializeVecBatch drains an operator into one dense
// column-major batch (no selection vector). Cells are copied out of the
// producer-owned batches, so the result is stable for the query's duration;
// dense input batches copy over one bulk append per column.
func materializeVecBatch(op operator) (*ctable.Batch, error) {
	out := ctable.NewBatch(len(op.Columns()), 0)
	err := eachBatch(op, func(b *ctable.Batch) error {
		if b.Sel == nil {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c]...)
			}
			out.Conds = append(out.Conds, b.Conds...)
			return nil
		}
		for _, phys := range b.Sel {
			for c := range out.Cols {
				out.Cols[c] = append(out.Cols[c], b.Cols[c][phys])
			}
			out.Conds = append(out.Conds, b.Conds[phys])
		}
		return nil
	})
	return out, err
}

// lowerVecNode lowers a logical node onto its operator, recursively.
// pressure marks subtrees under a streaming LIMIT with no blocking operator
// in between: joins there pull probe rows one at a time, so no input row is
// pulled that the limit does not need. Blocking operators (Sort, Distinct,
// Aggregate) drain their input fully whatever sits above them and reset the
// flag for their children, as does a join for its build side.
func lowerVecNode(env execEnv, n lnode, timed, pressure bool) (operator, error) {
	// The node's inputs, left to right, without the slice children() would
	// allocate.
	var in [2]lnode
	nin := 1
	switch t := n.(type) {
	case *lJoin:
		in, nin = [2]lnode{t.left, t.right}, 2
	case *lFilter:
		in[0] = t.input
	case *lProject:
		in[0] = t.input
	case *lLimit:
		in[0], pressure = t.input, true
	case *lAggregate:
		in[0], pressure = t.input, false
	case *lDistinct:
		in[0], pressure = t.input, false
	case *lSort:
		in[0], pressure = t.input, false
	default:
		nin = 0
	}
	b := vecBase{name: n.op(), detail: n.detail(), timed: timed, kids: make([]operator, nin)}
	for i, c := range in[:nin] {
		k, err := lowerVecNode(env, c, timed, pressure && i == 0)
		if err != nil {
			return nil, err
		}
		b.kids[i] = k
	}
	if nin > 0 {
		b.cols = b.kids[0].Columns()
	}
	var op operator
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
		b.cols = t.outCols()
		op = &vecScanOp{vecBase: b, env: env, tuples: t.tuples, keep: t.keep, pre: pre,
			keyed: t.key != nil, cand: t.cand}
	case *lJoin:
		left, right := b.kids[0], b.kids[1]
		b.cols = slices.Concat(left.Columns(), right.Columns())
		op = &vecJoinOp{vecBase: b, env: env, left: left, right: right, hash: t.hash,
			leftKeys: t.leftKeys, rightKeys: t.rightKeys,
			nLeft: len(left.Columns()), pressure: pressure}
	case *lFilter:
		pred := make(ctable.AndPred, len(t.preds))
		for i, p := range t.preds {
			pred[i] = p.cmp
		}
		o := &vecFilterOp{vecBase: b, child: b.kids[0], pred: pred}
		o.predI = o.pred // boxed once; ApplyPredicate per row would re-box
		o.bp, _ = ctable.CompileBatchPred(pred)
		op = o
	case *lProject:
		b.cols = t.names
		oenv := opScope(env, &b)
		op = &vecProjectOp{vecBase: b, env: oenv, child: b.kids[0], spec: t}
	case *lAggregate:
		b.cols = t.outNames
		oenv := opScope(env, &b)
		op = &vecTableOp{vecBase: b, env: oenv, spec: t}
	case *lDistinct, *lSort, *lEmpty:
		op = &vecTableOp{vecBase: b, spec: t}
	case *lLimit:
		op = &vecLimitOp{vecBase: b, child: b.kids[0], remaining: t.n}
	default:
		return nil, fmt.Errorf("sql: unknown plan node %T", n)
	}
	op.base().self = op
	return op, nil
}

// opScope gives a sampling operator (Project, Aggregate) its own telemetry
// scope chained to the statement trace, and returns a copy of env whose
// sampler records into it — so EXPLAIN ANALYZE can attribute sampler work
// to the operator that caused it while the statement and engine counters
// keep aggregating through the parent chain.
func opScope(env execEnv, b *vecBase) execEnv {
	var parent *obs.SamplerStats
	if env.qs != nil {
		parent = env.qs.Sampler
	}
	b.samp = &obs.SamplerStats{Parent: parent}
	env.smp = env.smp.WithStats(b.samp)
	return env
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
	i      int
}

func (o *vecScanOp) next(max int) (*ctable.Batch, error) {
	if err := o.env.ctxErr(); err != nil {
		return nil, err
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
	return o.out, nil
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
	child operator
	pred  ctable.AndPred
	predI ctable.Predicate // pred boxed once for rows the columnar path cannot decide
	bp    *ctable.BatchPred
	row   []ctable.Value
	sel   []int
}

func (o *vecFilterOp) next(max int) (*ctable.Batch, error) {
	if o.row == nil {
		o.row = make([]ctable.Value, len(o.cols))
	}
	for {
		b, err := o.child.NextBatch(max)
		if err != nil {
			return nil, err
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
		o.sel = sel
		if len(sel) > 0 {
			b.Sel = sel
			return b, rowErr
		}
		if rowErr != nil {
			return nil, rowErr
		}
		// Whole chunk filtered out: pull the next one.
	}
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
	env   execEnv
	child operator
	spec  *lProject
	in    ctable.Tuple   // the input row being projected
	res   []ctable.Value // its projected cells
}

func (o *vecProjectOp) next(max int) (*ctable.Batch, error) {
	b, err := o.child.NextBatch(max)
	if err != nil {
		return nil, err
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
			return o.out, err
		}
		o.out.AppendRow(res.Values, res.Cond)
	}
	return o.out, nil
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
// first build row with that key plus a chain linking each row to the
// following one with the same key; the chain is built back to front, so
// every bucket lists its rows in build order. Building costs a handful of
// allocations whatever the number of build rows.
type vecJoinOp struct {
	vecBase
	env                 execEnv
	left, right         operator
	hash                bool
	leftKeys, rightKeys []int
	nLeft               int
	pressure            bool

	bb            *ctable.Batch    // build side, dense column-major
	anyBuildFalse bool             // some build row has a false condition
	heads         map[string]int32 // key → first build row with that key
	chain         []int32          // build row → next row with its key, or -1
	symb          []int            // build rows with a symbolic key cell
	keyBuf        []byte
	matchBuf      []int // backs matches for deterministic probe keys

	pb        *ctable.Batch // current probe batch
	pi        int           // next logical probe row in pb
	pphys     int           // physical index of the in-flight probe row
	probeCond cond.Condition
	probing   bool // pphys/matches hold an in-flight probe row
	matches   []int
	all       bool
	mi        int
}

func (o *vecJoinOp) next(max int) (*ctable.Batch, error) {
	if err := o.env.ctxErr(); err != nil {
		return nil, err
	}
	if o.bb == nil {
		bb, err := materializeVecBatch(o.right)
		if err != nil {
			return nil, err
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
					return o.out, err
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
	return o.out, nil
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
	o.chain = make([]int32, n)
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
			o.chain[i] = h
		} else {
			o.chain[i] = -1
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
	for j := head; j >= 0; j = o.chain[j] {
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

// ---------------------------------------------------------------------------
// Materialized results: Aggregate, Distinct, Sort, Result

// vecTableOp emits a materialized c-table in batches of the caller's need.
// A blocking operator computes the table on the first pull from the whole
// of its input:
//
//   - Aggregate folds each row into its group as the row arrives (aggFold)
//     and completes every group's aggregates: one row per group, in
//     first-occurrence order of the keys;
//   - Distinct coalesces duplicate data tuples, OR-ing their conditions
//     into DNF (ctable.Distinct, first-occurrence order preserved);
//   - Sort orders its input by one output column with a stable sort, so
//     ties keep input order; a symbolic cell in that column fails the
//     query.
//
// The constant-false Result (lEmpty) is the empty table. The cursor of a
// statement that is not a SELECT (tableCursor) is given its table.
type vecTableOp struct {
	vecBase
	env   execEnv // the Aggregate's sampler scope
	spec  lnode
	tb    *ctable.Table
	i     int
	batch *ctable.Batch
}

func (o *vecTableOp) next(max int) (*ctable.Batch, error) {
	if o.tb == nil {
		tb, err := o.compute()
		if err != nil {
			return nil, err
		}
		o.tb = tb
	}
	rows := o.tb.Tuples[o.i:]
	if len(rows) == 0 {
		return nil, nil
	}
	rows = rows[:min(len(rows), max)]
	if o.batch == nil {
		o.batch = ctable.NewBatch(len(o.cols), len(rows))
	}
	o.batch.Reset()
	for i := range rows {
		o.batch.AppendTuple(&rows[i])
	}
	o.i += len(rows)
	return o.batch, nil
}

// compute builds the table the operator emits.
func (o *vecTableOp) compute() (*ctable.Table, error) {
	var rows []ctable.Tuple
	switch s := o.spec.(type) {
	case *lAggregate:
		f := newAggFold(o.env, s)
		// One tuple for every row: a tuple per row would escape to the heap.
		t := &ctable.Tuple{Values: make([]ctable.Value, len(o.kids[0].Columns()))}
		err := eachBatch(o.kids[0], func(b *ctable.Batch) error {
			for k := 0; k < b.Len(); k++ {
				t.Cond = b.GatherRow(k, t.Values)
				if err := f.add(t); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return f.finish(o.env)
	case *lDistinct:
		if err := materializeVec(o.kids[0], &rows); err != nil {
			return nil, err
		}
		return ctable.Distinct(&ctable.Table{Tuples: rows}), nil
	case *lSort:
		if err := materializeVec(o.kids[0], &rows); err != nil {
			return nil, err
		}
		var err error
		sort.SliceStable(rows, func(i, j int) bool {
			c, ok := rows[i].Values[s.col].Compare(rows[j].Values[s.col])
			if !ok {
				err = fmt.Errorf("sql: ORDER BY over symbolic column %s", s.name)
				return false
			}
			if s.desc {
				return c > 0
			}
			return c < 0
		})
		return &ctable.Table{Tuples: rows}, err
	}
	return &ctable.Table{}, nil
}

// tableCursor is the cursor of a statement that is not a SELECT: it emits
// the statement's result table (nil, the result of DDL and DML, has no
// columns and no rows). qs is the trace of the execution that produced it.
func tableCursor(tb *ctable.Table, qs *obs.QueryStats) Cursor {
	o := &vecTableOp{tb: &ctable.Table{}}
	if tb != nil {
		o.tb, o.cols = tb, tb.Schema.Names()
	}
	o.self, o.qs = o, qs
	return o
}

// ---------------------------------------------------------------------------
// Limit

// vecLimitOp truncates the stream after n rows. It forwards its remaining
// budget as the child's chunk size, so upstream operators stop being pulled
// the moment the limit fills and per-row sampling beyond it never runs.
type vecLimitOp struct {
	vecBase
	child     operator
	remaining int
}

func (o *vecLimitOp) next(max int) (*ctable.Batch, error) {
	if o.remaining <= 0 {
		return nil, nil
	}
	n := min(max, o.remaining)
	b, err := o.child.NextBatch(n)
	if err != nil {
		return nil, err
	}
	b = b.Head(n)
	o.remaining -= b.Len()
	return b, nil
}
