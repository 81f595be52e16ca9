package sampler

import (
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
// sequential — is handled by running the batches on one worker, in order
// (fanOut with workers = 1), whenever a group escalates, and by making
// mid-stream escalation a batch-local decision (fresh per-batch counters),
// which is again a pure function of the batch's index range.
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

// rowBatchSize is the number of rows per partial sum of a RowSum, and of
// deferred rows per dispatched batch when they are evaluated.
const rowBatchSize = 8

// effectiveWorkers resolves Config.Workers: 0 means one goroutine per
// available CPU.
func (c Config) effectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut is the round barrier, the one place the sampler runs work on more
// than one goroutine. It splits the index range [start, start+count) into
// batches of size indices (the last may be short), runs run(w, lo, hi, out)
// for each on up to workers goroutines, and returns the per-batch results in
// batch order. w < workers identifies the goroutine, so run may use scratch
// owned by worker w; beyond that it must touch only its batch's out (plus
// read-only shared structures). With workers <= 1 the batches run inline,
// in order, as worker 0. The split depends only on (start, count, size), so
// a caller that merges the results in order gets the same bits at every
// worker count.
//
// A cancelled cfg.Ctx stops further dispatch (running batches finish) and
// fanOut returns cfg.ctxErr() and no results, so a cancellation can never
// surface as a partial round.
func fanOut[T any](cfg *Config, workers, start, count, size int, run func(w, lo, hi int, out *T)) ([]T, error) {
	out := make([]T, max(0, (count+size-1)/size))
	batch := func(w, b int) {
		lo := start + b*size
		run(w, lo, min(lo+size, start+count), &out[b])
	}
	if workers = min(workers, len(out)); workers <= 1 {
		for b := 0; b < len(out) && cfg.ctxErr() == nil; b++ {
			batch(0, b)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range workers {
			go func() {
				defer wg.Done()
				for cfg.ctxErr() == nil {
					b := int(next.Add(1)) - 1
					if b >= len(out) {
						return
					}
					batch(w, b)
				}
			}()
		}
		wg.Wait()
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	return out, nil
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
	// counts mirrors the rejection counters of the batch's private
	// group-sampler copies, indexed like the engine's prototype slice (nil
	// in sequential mode, where the prototypes themselves advance).
	counts []groupCounts
}

// groupCounts is one group's rejection counters as a batch left them.
type groupCounts struct {
	attempts, accepts int
	escalated         bool
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

	// sequential is set when any group escalated to Metropolis: the chain's
	// state must persist across samples, so batches run on one worker, in
	// order, against the prototypes themselves. The decision is a pure
	// function of the query and the merged rounds, so it is identical for
	// every worker count.
	sequential bool
	// scratch[w] belongs to worker w, built on the worker's first batch.
	scratch []*batchScratch

	acc    Accumulator
	values []float64
	// failed is set once a sample exhausted its rejection cap: the
	// constraint region is unreachable within budget.
	failed bool
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
// results in batch order; a batch that exhausts its rejection cap sets
// ge.failed and ends the merge. The error is the context's: the round was
// abandoned and the engine's state must not be reported.
func (ge *groupEngine) runRound(start, count int) error {
	if count <= 0 {
		return nil
	}
	ng, workers := len(ge.protos), 1
	var counts []groupCounts
	if !ge.sequential {
		// Parallel batches report their private samplers' counters into
		// windows of one per-round array.
		workers = ge.cfg.effectiveWorkers()
		counts = make([]groupCounts, ng*((count+sampleBatchSize-1)/sampleBatchSize))
	}
	// Telemetry baselines, recorded as deltas once the barrier merge has
	// completed (or failed mid-merge). The counters never steer the round.
	preN := ge.acc.N
	preAtt, preAcc := ge.tally()
	results, err := fanOut(ge.cfg, workers, start, count, sampleBatchSize, func(w, lo, hi int, r *groupBatch) {
		if counts != nil {
			b := (lo - start) / sampleBatchSize
			r.counts = counts[ng*b : ng*(b+1)]
		}
		ge.runBatch(ge.workerScratch(w), lo, hi-lo, r)
	})
	if err != nil {
		return err
	}
	// Barrier merge, strictly in batch order.
	for b := range results {
		r := &results[b]
		ge.acc.Merge(r.acc)
		if ge.collect {
			ge.values = append(ge.values, r.values...)
		}
		for gi, c := range r.counts {
			gs := ge.protos[gi]
			gs.attempts += c.attempts
			gs.accepts += c.accepts
			gs.escalated = gs.escalated || c.escalated
		}
		if r.failedAt >= 0 {
			ge.failed = true
			break
		}
	}
	att, acc := ge.tally()
	ge.cfg.Stats.AddRound(int64(len(results)), int64(ge.acc.N-preN), int64(att-preAtt), int64(acc-preAcc))
	// If any batch escalated this round, later rounds run sequentially on
	// the prototypes: their merged counters immediately re-trigger the
	// escalation inside drawInto, so the burn-in is paid once for the rest
	// of the run instead of once per batch. The flip is a pure function of
	// the merged round results, hence identical at every worker count.
	for _, gs := range ge.protos {
		ge.sequential = ge.sequential || gs.escalated
	}
	return nil
}

// tally sums the prototypes' rejection counters.
func (ge *groupEngine) tally() (attempts, accepts int) {
	for _, gs := range ge.protos {
		attempts += gs.attempts
		accepts += gs.accepts
	}
	return attempts, accepts
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
	for i := range res.counts {
		res.counts[i] = groupCounts{gss[i].attempts, gss[i].accepts, gss[i].usingMetropolis()}
	}
}

// runAdaptive draws rounds until the (epsilon, delta) bound is met at a
// barrier or a rejection cap fires (ge.failed). The error is the context's.
func (ge *groupEngine) runAdaptive() error {
	z := ge.cfg.zTarget()
	for ge.cfg.wantMore(ge.acc, z) {
		round := ge.cfg.nextRoundSize(ge.acc.N)
		if round <= 0 {
			break
		}
		if err := ge.runRound(ge.acc.N, round); err != nil || ge.failed {
			return err
		}
		// Epsilon-trajectory: one barrier observation of the confidence
		// half-width the stopping rule compares against Delta next.
		ge.cfg.Stats.RecordTrajectory(ge.acc.N, ge.cfg.relWidth(ge.acc, z))
	}
	return nil
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
// attempt indices are also returned, in attempt order. The error is the
// context's: the round was abandoned.
func (we *worldEngine) runRound(start, count int, collect bool) (worldBatch, error) {
	var merged worldBatch
	results, err := fanOut(we.cfg, we.cfg.effectiveWorkers(), start, count, sampleBatchSize, func(w, lo, hi int, r *worldBatch) {
		we.runBatch(we.workerScratch(w), lo, hi-lo, collect, r)
	})
	if err != nil {
		return merged, err
	}
	for b := range results {
		merged.acc.Merge(results[b].acc)
		merged.attempts += results[b].attempts
		if collect {
			merged.values = append(merged.values, results[b].values...)
			merged.idxs = append(merged.idxs, results[b].idxs...)
		}
	}
	we.cfg.Stats.AddRound(int64(len(results)), int64(merged.acc.N), int64(merged.attempts), int64(merged.acc.N))
	return merged, nil
}
