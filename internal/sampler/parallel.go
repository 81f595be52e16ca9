package sampler

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"pip/internal/expr"
)

// Parallel world evaluation.
//
// Every pseudorandom draw in the sampler is keyed as
// prng.NewKeyed(WorldSeed, varID, subscript, sampleIdx, attempt) — a pure
// function of the sample index, never of execution history. The engine
// exploits this: sample indices are sharded into fixed-size batches, batches
// are dispatched to a goroutine pool, each worker draws into its own scratch
// (one world in slot order, see frame.go) with its own per-group sampler
// state, and per-batch accumulators are merged IN BATCH ORDER at round
// barriers.
//
// Determinism contract: batch boundaries, the adaptive round schedule
// (Config.nextRoundSize), every per-batch draw, and the merge order are all
// independent of Config.Workers. Equal seed + any worker count => bit
// identical results. The only engine state that is not a pure function of
// the sample index — the Metropolis random walk, whose chain is inherently
// sequential — is handled by falling back to in-order batch execution on a
// single goroutine whenever a group pre-escalates, and by making mid-stream
// escalation a batch-local decision (fresh per-batch counters), which is
// again a pure function of the batch's index range.
//
// Adaptive (epsilon, delta) stopping is checked at batch barriers instead of
// per sample: after each round the merged accumulator is tested with
// Config.wantMore, so the engine may overshoot the sequential stopping point
// by at most one round — identically for every worker count.

// sampleBatchSize is the number of sample indices per dispatched batch.
// Small enough to balance load across workers at MinSamples-scale budgets,
// large enough that per-batch setup (resetting the group-sampler copies) is
// amortized.
const sampleBatchSize = 64

// rowBatchSize is the number of c-table rows per dispatched batch in
// row-parallel aggregates (ExpectedSum, ExpectedCount).
const rowBatchSize = 8

// effectiveWorkers resolves Config.Workers: 0 means one goroutine per
// available CPU.
func (c Config) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEachBatch runs fn(w, b) for every b in [0, numBatches) on up to workers
// goroutines; w < workers identifies the goroutine, so fn may use scratch
// owned by worker w. Beyond that fn must touch only state owned by batch b
// (plus read-only shared structures); results must be written into per-batch
// slots so the caller can merge them in batch order. With workers <= 1 the
// batches run inline, in order, on the calling goroutine as worker 0 — same
// slots, same merge.
//
// A cancelled ctx stops further batch dispatch; already-running batches
// finish. Callers must re-check the context after the barrier and discard
// the round on cancellation (slots of undispatched batches are zero), so
// cancellation can never surface as a partial result.
func forEachBatch(ctx context.Context, workers, numBatches int, fn func(w, b int)) {
	if workers > numBatches {
		workers = numBatches
	}
	if workers <= 1 {
		for b := 0; b < numBatches; b++ {
			if ctxCancelled(ctx) {
				return
			}
			fn(0, b)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for !ctxCancelled(ctx) {
				b := int(atomic.AddInt64(&next, 1)) - 1
				if b >= numBatches {
					return
				}
				fn(w, b)
			}
		}(w)
	}
	wg.Wait()
}

// ctxCancelled reports whether a (possibly nil) context has been cancelled.
func ctxCancelled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// splitRange shards the index range [start, start+count) into batches of at
// most size indices, returning the batch start offsets (the last batch may
// be short). The split depends only on (start, count, size).
func splitRange(start, count, size int) []int {
	if count <= 0 {
		return nil
	}
	n := (count + size - 1) / size
	offs := make([]int, n)
	for i := range offs {
		offs[i] = start + i*size
	}
	return offs
}

// ---------------------------------------------------------------------------
// Group-sampling engine: conditional samples of an expression drawn through
// goal-directed group samplers (Expectation, ExpectationHistogram, Conf's
// rejection path).

// groupBatch is one batch's private result, merged at the round barrier.
type groupBatch struct {
	acc    Accumulator
	values []float64 // per-sample values, kept only in collect mode
	// failedAt is the first sample index whose rejection cap was exhausted
	// (-1 when the whole batch succeeded). Samples after it were not drawn.
	failedAt int
	// attempts / accepts / escalated mirror the per-group rejection counters
	// of the batch's private group-sampler copies, indexed like the engine's
	// prototype slice (nil in sequential mode, where the prototypes
	// themselves advance).
	attempts  []int
	accepts   []int
	escalated []bool
}

// batchScratch is one worker's working memory for runBatch, sized once per
// engine: the world under construction, the batch's slot columns and
// EvalBatch scratch, and the worker's private copies of the group samplers.
type batchScratch struct {
	scratch
	cols   [][]float64 // cols[slot][i]: slot's value in the batch's i-th sample
	out    []float64
	bstack []float64
	gss    []*groupSampler // reset from the prototypes at every batch
}

// groupEngine draws conditional samples for a fixed set of constraint
// groups, evaluating a target expression per accepted sample. It is shared
// by the adaptive expectation path and the fixed-count histogram path.
type groupEngine struct {
	cfg    *Config
	protos []*groupSampler
	// prog is the target expression compiled against the engine's frame —
	// the groups' frames laid end to end (groupSampler.base) — and evaluated
	// across a whole batch of drawn sample worlds in one pass, over the very
	// columns the draw loop filled. Evaluation is a pure read of the drawn
	// values, so batching the evaluations after the batch's draws changes no
	// PRNG state and no merge order.
	prog   *expr.Program
	nstack int // per-world stack depth the groups' atoms need
	// collect keeps every per-sample value (histogram mode) in addition to
	// the moment accumulator.
	collect bool

	// sequential is set when any group pre-escalated to Metropolis: the
	// chain's state must persist across samples, so batches run in order on
	// the calling goroutine against the prototypes themselves. The decision
	// is made once, from setup state that is a pure function of the query,
	// so it is identical for every worker count.
	sequential bool
	// scratch[w] belongs to worker w, built on the worker's first batch.
	scratch []*batchScratch

	acc    Accumulator
	values []float64
	failed bool
	// err is the context error that aborted the run, if any. Once set, the
	// accumulated state is partial and must not be reported.
	err error
}

// newGroupEngine lays the groups' frames end to end, compiles the target
// against the combined numbering and runs each group's Metropolis pilot —
// here, before any batch copies a prototype, so that the sequential/parallel
// decision stays a pure function of set-up. The error is a compile failure.
func newGroupEngine(cfg *Config, protos []*groupSampler, e expr.Expr, collect bool) (*groupEngine, error) {
	ge := &groupEngine{cfg: cfg, protos: protos, collect: collect}
	var keys []expr.VarKey
	for _, gs := range protos {
		gs.base = len(keys)
		keys = append(keys, gs.group.Keys...)
		ge.nstack = max(ge.nstack, gs.atoms.MaxStack())
	}
	prog, err := expr.CompileSlots(e, expr.NewSlotTable(keys))
	if err != nil {
		return nil, err
	}
	ge.prog = prog
	for _, gs := range protos {
		gs.maybePreEscalate()
		if gs.usingMetropolis() {
			ge.sequential = true
		}
	}
	ge.scratch = make([]*batchScratch, max(1, cfg.effectiveWorkers()))
	return ge, nil
}

// workerScratch returns worker w's scratch, building it on first use. Only
// worker w ever touches slot w, so no synchronization is needed.
func (ge *groupEngine) workerScratch(w int) *batchScratch {
	if sc := ge.scratch[w]; sc != nil {
		return sc
	}
	const n = sampleBatchSize
	slots := ge.prog.NumSlots()
	flat := make([]float64, (slots+1+ge.prog.MaxStack())*n)
	sc := &batchScratch{
		scratch: *newScratch(slots, ge.nstack),
		cols:    make([][]float64, slots),
		out:     flat[slots*n : (slots+1)*n],
		bstack:  flat[(slots+1)*n:],
		gss:     make([]*groupSampler, len(ge.protos)),
	}
	for s := range sc.cols {
		sc.cols[s] = flat[s*n : (s+1)*n]
	}
	for i := range sc.gss {
		sc.gss[i] = new(groupSampler)
	}
	ge.scratch[w] = sc
	return sc
}

// runRound draws the sample index range [start, start+count), merging batch
// results in batch order. It returns false once a sample exhausts its
// rejection cap (the constraint region is unreachable within budget) or the
// configuration context is cancelled (ge.err distinguishes the two).
func (ge *groupEngine) runRound(start, count int) bool {
	if ge.failed || ge.err != nil || count <= 0 {
		return !ge.failed && ge.err == nil
	}
	if err := ge.cfg.ctxErr(); err != nil {
		ge.err = err
		return false
	}
	offs := splitRange(start, count, sampleBatchSize)
	// Telemetry baselines, recorded as deltas once the barrier merge has
	// completed (or failed mid-merge). The counters never steer the round.
	preN := ge.acc.N
	preAtt, preAcc := 0, 0
	for _, gs := range ge.protos {
		preAtt += gs.attempts
		preAcc += gs.accepts
	}
	record := func() {
		if st := ge.cfg.Stats; st != nil {
			att, acc := 0, 0
			for _, gs := range ge.protos {
				att += gs.attempts
				acc += gs.accepts
			}
			st.AddRound()
			st.AddBatches(int64(len(offs)))
			st.AddSamples(int64(ge.acc.N - preN))
			st.AddRejection(int64(att-preAtt), int64(acc-preAcc))
		}
	}
	results := make([]groupBatch, len(offs))
	// Parallel batches report their private samplers' counters into windows
	// of one per-round array (attempts, then accepts, per group per batch).
	ng := len(ge.protos)
	var counts []int
	var esc []bool
	if !ge.sequential {
		counts = make([]int, 2*ng*len(offs))
		esc = make([]bool, ng*len(offs))
	}
	run := func(w, b int) {
		n := sampleBatchSize
		if rem := start + count - offs[b]; rem < n {
			n = rem
		}
		r := &results[b]
		if counts != nil {
			r.attempts = counts[2*ng*b : 2*ng*b+ng]
			r.accepts = counts[2*ng*b+ng : 2*ng*(b+1)]
			r.escalated = esc[ng*b : ng*(b+1)]
		}
		ge.runBatch(ge.workerScratch(w), offs[b], n, r)
	}
	if ge.sequential {
		// In-order execution against the live prototypes: Metropolis chain
		// state carries across batches, exactly as in a sequential engine.
		for b := range offs {
			if ctxCancelled(ge.cfg.Ctx) {
				break
			}
			run(0, b)
		}
	} else {
		forEachBatch(ge.cfg.Ctx, ge.cfg.effectiveWorkers(), len(offs), run)
	}
	// Round barrier: a cancellation observed here aborts before the merge —
	// undispatched batches hold zero slots, so merging them would corrupt
	// the accumulator silently.
	if err := ge.cfg.ctxErr(); err != nil {
		ge.err = err
		return false
	}
	// Barrier merge, strictly in batch order.
	for b := range results {
		r := &results[b]
		ge.acc.Merge(r.acc)
		if ge.collect {
			ge.values = append(ge.values, r.values...)
		}
		for gi := range r.attempts {
			ge.protos[gi].attempts += r.attempts[gi]
			ge.protos[gi].accepts += r.accepts[gi]
			if r.escalated[gi] {
				ge.protos[gi].escalated = true
			}
		}
		if r.failedAt >= 0 {
			ge.failed = true
			record()
			return false
		}
	}
	record()
	// If any batch escalated this round, later rounds run sequentially on
	// the prototypes: their merged counters immediately re-trigger the
	// escalation inside drawInto, so the burn-in is paid once for the rest
	// of the run instead of once per batch. The flip is a pure function of
	// the merged round results, hence identical at every worker count.
	if !ge.sequential {
		for _, gs := range ge.protos {
			if gs.escalated {
				ge.sequential = true
				break
			}
		}
	}
	return true
}

// runBatch draws samples [start, start+n) into res, which the caller has
// zeroed. In parallel mode the worker's private copy of each group prototype
// is reset to fresh counters, so the batch result is a pure function of its
// index range; in sequential mode the prototypes themselves advance
// (Metropolis chains must persist). Accepted draws go straight into the
// batch columns EvalBatch reads; apart from res.values (collect mode) the
// batch allocates nothing.
func (ge *groupEngine) runBatch(sc *batchScratch, start, n int, res *groupBatch) {
	res.failedAt = -1
	gss := ge.protos
	if !ge.sequential {
		gss = sc.gss
		for i, gs := range ge.protos {
			gs.cloneInto(gss[i])
		}
	}
	drawn := 0
	for ; drawn < n; drawn++ {
		idx := uint64(start + drawn)
		ok := true
		for _, gs := range gss {
			if !gs.drawInto(&sc.scratch, idx) {
				ok = false
				break
			}
		}
		if !ok {
			res.failedAt = start + drawn
			break
		}
		for s, v := range sc.vals {
			sc.cols[s][drawn] = v
		}
	}
	if drawn > 0 {
		ge.prog.EvalBatch(sc.cols, drawn, sc.out, sc.bstack)
		// Accumulate in sample order: the Add sequence of a per-sample loop.
		for _, v := range sc.out[:drawn] {
			res.acc.Add(v)
		}
		if ge.collect {
			res.values = append(make([]float64, 0, drawn), sc.out[:drawn]...)
		}
	}
	for i := range res.attempts {
		res.attempts[i] = gss[i].attempts
		res.accepts[i] = gss[i].accepts
		res.escalated[i] = gss[i].usingMetropolis()
	}
}

// runAdaptive draws rounds until the (epsilon, delta) bound is met at a
// barrier (or a rejection cap fires). It returns the merged accumulator and
// whether every requested sample was produced.
func (ge *groupEngine) runAdaptive() (Accumulator, bool) {
	z := ge.cfg.zTarget()
	for ge.cfg.wantMore(ge.acc, z) {
		round := ge.cfg.nextRoundSize(ge.acc.N)
		if round <= 0 {
			break
		}
		if !ge.runRound(ge.acc.N, round) {
			return ge.acc, false
		}
		// Epsilon-trajectory: one barrier observation of the confidence
		// half-width the stopping rule just evaluated.
		ge.cfg.Stats.RecordTrajectory(ge.acc.N, ge.cfg.relWidth(ge.acc, z))
	}
	return ge.acc, true
}

// runFixed draws exactly n samples (stopping early only on rejection-cap
// failure), returning the per-sample values when collecting.
func (ge *groupEngine) runFixed(n int) ([]float64, Accumulator, bool) {
	ok := ge.runRound(0, n)
	return ge.values, ge.acc, ok
}

// ---------------------------------------------------------------------------
// World-sampling engine: draws over a fixed variable set, indexed by attempt
// (worldSampleDNF, sampleGroupProb).

// worldRoundSize returns the next number of raw attempts for the rejection
// world sampler, given attempts so far — the attempt-indexed analogue of
// nextRoundSize (initial rounds of 4 batches, then doubling).
func worldRoundSize(attempts, maxAttempts int) int {
	r := attempts
	if r < 4*sampleBatchSize {
		r = 4 * sampleBatchSize
	}
	if attempts+r > maxAttempts {
		r = maxAttempts - attempts
	}
	return r
}

// worldBatch is one batch of attempt indices of a world sampler.
type worldBatch struct {
	acc      Accumulator // moments of accepted samples
	attempts int
	// values / idxs record each accepted value and its global attempt
	// index (collect mode only), letting a fixed budget truncate to exactly
	// its sample count in attempt order.
	values []float64
	idxs   []int
}

// worldEngine runs attempt-indexed rejection world samples: each attempt
// draws a whole world into the worker's scratch (keyed by the attempt index)
// and either yields a value or is rejected.
type worldEngine struct {
	cfg *Config
	// draw fills sc.vals for attempt idx and reports the attempt's value, or
	// false when the world is rejected. It may use sc.stack and sc.rng and
	// must not retain sc.
	draw         func(sc *scratch, idx uint64) (float64, bool)
	slots, stack int
	// scratch[w] belongs to worker w, built on the worker's first batch.
	scratch []*scratch
}

func newWorldEngine(cfg *Config, slots, stack int, draw func(sc *scratch, idx uint64) (float64, bool)) *worldEngine {
	return &worldEngine{cfg: cfg, draw: draw, slots: slots, stack: stack,
		scratch: make([]*scratch, max(1, cfg.effectiveWorkers()))}
}

// workerScratch returns worker w's scratch, building it on first use. Only
// worker w ever touches slot w, so no synchronization is needed.
func (we *worldEngine) workerScratch(w int) *scratch {
	if we.scratch[w] == nil {
		we.scratch[w] = newScratch(we.slots, we.stack)
	}
	return we.scratch[w]
}

// runBatch draws attempts [start, start+n) on sc into r, which the caller
// has zeroed. Without collect it allocates nothing.
func (we *worldEngine) runBatch(sc *scratch, start, n int, collect bool, r *worldBatch) {
	for i := 0; i < n; i++ {
		r.attempts++
		idx := start + i
		if v, ok := we.draw(sc, uint64(idx)); ok {
			r.acc.Add(v)
			if collect {
				r.values = append(r.values, v)
				r.idxs = append(r.idxs, idx)
			}
		}
	}
}

// runRound draws attempt indices [start, start+count), merging batch
// accumulators in batch order. With collect set, accepted values and their
// attempt indices are also returned, in attempt order. Callers must check
// cfg.ctxErr() after the round and discard the batch on cancellation.
func (we *worldEngine) runRound(start, count int, collect bool) worldBatch {
	cfg := we.cfg
	offs := splitRange(start, count, sampleBatchSize)
	results := make([]worldBatch, len(offs))
	forEachBatch(cfg.Ctx, cfg.effectiveWorkers(), len(offs), func(w, b int) {
		n := sampleBatchSize
		if rem := start + count - offs[b]; rem < n {
			n = rem
		}
		we.runBatch(we.workerScratch(w), offs[b], n, collect, &results[b])
	})
	var merged worldBatch
	for b := range results {
		merged.acc.Merge(results[b].acc)
		merged.attempts += results[b].attempts
		if collect {
			merged.values = append(merged.values, results[b].values...)
			merged.idxs = append(merged.idxs, results[b].idxs...)
		}
	}
	if st := cfg.Stats; st != nil {
		st.AddRound()
		st.AddBatches(int64(len(offs)))
		st.AddSamples(int64(merged.acc.N))
		st.AddRejection(int64(merged.attempts), int64(merged.acc.N))
	}
	return merged
}
