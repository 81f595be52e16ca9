package sampler

import (
	"context"
	"math"

	"pip/internal/cond"
	"pip/internal/expr"
	"pip/internal/obs"
)

// Result reports the outcome of an expectation or confidence computation.
type Result struct {
	// Mean is the conditional expectation E[expr | condition]. NaN when
	// the condition is unsatisfiable (paper §IV-B: "If the context is
	// unsatisfiable, a value of NAN will result").
	Mean float64
	// Prob is P[condition] when requested, else 1.
	Prob float64
	// N is the number of accepted samples used for the mean (0 when the
	// result was computed exactly).
	N int
	// StdErr is the standard error of the mean estimate (0 when exact).
	StdErr float64
	// Exact is true when no sampling was necessary (closed-form mean on an
	// unconstrained variable, or CDF-integrated probability).
	Exact bool
	// UsedMetropolis reports whether any group escalated to the random
	// walk (in which case Prob falls back to sampling, see Algorithm 4.3).
	UsedMetropolis bool
	// Err is non-nil when the computation was aborted by Config.Ctx
	// (context cancellation or deadline). Every other field is then
	// meaningless: an aborted computation never reports a partial estimate.
	Err error
}

// Sampler evaluates expectations, probabilities and aggregates against
// symbolic conditions. It is stateless across calls apart from its
// configuration; all randomness derives from Config.WorldSeed.
type Sampler struct {
	cfg Config
}

// New returns a sampler with the given configuration.
func New(cfg Config) *Sampler { return &Sampler{cfg: cfg} }

// Config returns the sampler's configuration.
func (s *Sampler) Config() Config { return s.cfg }

// WithContext returns a sampler identical to s whose computations observe
// ctx: cancellation or deadline expiry aborts sampling at the next batch
// dispatch or round barrier, reporting ctx.Err() instead of a result. A nil
// ctx returns s unchanged. Sampler draws are pure functions of their sample
// index, so scoping a context never perturbs the values a completed
// computation produces.
func (s *Sampler) WithContext(ctx context.Context) *Sampler {
	if ctx == nil {
		return s
	}
	cfg := s.cfg
	cfg.Ctx = ctx
	return &Sampler{cfg: cfg}
}

// WithStats returns a sampler identical to s whose computations record
// their telemetry into st: samples, batches, rounds, rejection/Metropolis
// accounting and the adaptive epsilon-trajectory. A nil st returns s
// unchanged. Stats recording is deterministic-neutral (see Config.Stats),
// so a scoped sampler produces bit-identical values to an unscoped one.
func (s *Sampler) WithStats(st *obs.SamplerStats) *Sampler {
	if st == nil {
		return s
	}
	cfg := s.cfg
	cfg.Stats = st
	return &Sampler{cfg: cfg}
}

// Expectation implements Algorithm 4.3: compute E[e | c] and, when getP is
// set, P[c]. The clause is partitioned into minimal independent groups;
// only groups sharing variables with e need sampling for the mean, and
// groups disjoint from e contribute to the probability only — computed
// exactly via CDF integration when possible (line 32–33). The mean itself
// is exact when e has degree ≤ 2 over unconstrained variables, or is linear
// over one linear-Gaussian group (closedform.go).
func (s *Sampler) Expectation(e expr.Expr, c cond.Clause, getP bool) Result {
	if c.IsTrue() {
		// Fast path: deterministic expression under a trivially-true clause.
		if e.Degree() == 0 {
			return Result{Mean: e.Eval(nil), Prob: 1, Exact: true}
		}
		// Exact path: unconstrained target of degree ≤ 2 with closed-form
		// moments ("potentially even sidestep [sampling] entirely", §III-A).
		if !s.cfg.DisableClosedForm {
			if mean, ok := closedFormMean(e); ok {
				s.cfg.Stats.AddClosedFormHit()
				return Result{Mean: mean, Prob: 1, Exact: true}
			}
		}
	}

	eKeys, eVars := expr.Vars(e)
	extras := make([]*expr.Variable, 0, len(eKeys))
	for _, k := range eKeys {
		extras = append(extras, eVars[k])
	}
	groups := s.partition(c, extras)

	// Identify groups relevant to the target expression.
	eKeySet := map[expr.VarKey]bool{}
	for _, k := range eKeys {
		eKeySet[k] = true
	}

	// Exact path: linear target over one linear-Gaussian group, whose
	// conditional mean is a truncated-normal moment.
	if !s.cfg.DisableClosedForm {
		if r, ok := s.exactConditionalMean(e, groups, eKeySet, getP); ok {
			return r
		}
	}

	var samplingGroups []*groupSampler // groups overlapping e: must be sampled
	var probGroups []*groupSampler     // groups disjoint from e: probability only
	for _, g := range groups {
		gs, err := newGroupSampler(g, &s.cfg)
		if err != nil {
			return Result{Err: err}
		}
		if gs.inconsistent {
			return Result{Mean: math.NaN(), Prob: 0, Exact: true}
		}
		if g.Touches(eKeySet) {
			samplingGroups = append(samplingGroups, gs)
		} else {
			probGroups = append(probGroups, gs)
		}
	}

	res := Result{Prob: 1}

	// Independence + closed form: if no constraint atom touches any
	// variable of e (all of e's groups are atom-free), the conditional
	// mean equals the unconditional mean — use the closed form when the
	// target has degree ≤ 2 with known moments. Constrained groups then
	// only contribute probability.
	if !s.cfg.DisableClosedForm {
		atomFree := true
		for _, gs := range samplingGroups {
			if len(gs.group.Atoms) > 0 {
				atomFree = false
				break
			}
		}
		if atomFree {
			if mean, ok := closedFormMean(e); ok {
				s.cfg.Stats.AddClosedFormHit()
				res.Mean = mean
				res.Exact = true
				if !getP {
					return res
				}
				prob, err := s.probOf(1, probGroups)
				if err != nil {
					return Result{Err: err}
				}
				res.Prob = prob
				return res
			}
		}
	}

	// Sample the groups the mean depends on. Sample indices are sharded
	// into batches across the worker pool; the adaptive (epsilon, delta)
	// bound is checked at round barriers, and per-batch accumulators merge
	// in batch order, so the result is bit-identical for every worker count.
	if len(samplingGroups) > 0 || len(eKeys) > 0 {
		engine, err := newGroupEngine(&s.cfg, samplingGroups, e, false)
		if err != nil {
			return Result{Err: err}
		}
		if err := engine.runAdaptive(); err != nil {
			return Result{Err: err}
		}
		if engine.failed {
			// Constraint region unreachable within budget.
			return Result{Mean: math.NaN(), Prob: 0}
		}
		acc := engine.acc
		res.N = acc.N
		res.Mean = acc.Mean()
		res.StdErr = acc.StdErr()
		for _, gs := range samplingGroups {
			if gs.usingMetropolis() {
				res.UsedMetropolis = true
			}
		}
	} else {
		// Deterministic expression under a purely probabilistic condition.
		res.Mean = e.Eval(nil)
		res.Exact = true
	}

	if !getP {
		return res
	}

	// Probability: accumulate per-group contributions. Groups that were
	// sampled give N/Count for free (line 29) unless they escalated to
	// Metropolis, in which case they are re-integrated by rejection — over
	// the draw plan they already own.
	prob, err := s.probOf(1, append(samplingGroups, probGroups...))
	if err != nil {
		return Result{Err: err}
	}
	res.Prob = prob
	return res
}

// ExpectationDNF generalizes Expectation to DNF conditions: single-clause
// conditions take the goal-directed path; multi-clause conditions fall back
// to world sampling over the union region.
func (s *Sampler) ExpectationDNF(e expr.Expr, d cond.Condition, getP bool) Result {
	if d.IsFalse() {
		return Result{Mean: math.NaN(), Prob: 0, Exact: true}
	}
	if d.IsTrue() {
		return s.Expectation(e, cond.TrueClause(), getP)
	}
	if len(d.Clauses) == 1 {
		return s.Expectation(e, d.Clauses[0], getP)
	}
	return s.worldSampleDNF(e, d, getP)
}

// worldSampleDNF estimates E[e | d] and P[d] by naive world sampling over
// every variable of (e, d). It is the general fallback for disjunctive
// contexts (the aconf path). Attempt indices are sharded across the worker
// pool — each world is a pure function of its attempt index — with the
// stopping bound checked at round barriers.
func (s *Sampler) worldSampleDNF(e expr.Expr, d cond.Condition, getP bool) Result {
	vars := map[expr.VarKey]*expr.Variable{}
	d.CollectVars(vars)
	e.CollectVars(vars)
	fr := newWorldFrame(vars, s.cfg.WorldSeed)
	holds, err := cond.CompileCondition(d, fr.table)
	if err != nil {
		return Result{Err: err}
	}
	target, err := expr.CompileSlots(e, fr.table)
	if err != nil {
		return Result{Err: err}
	}
	we := newWorldEngine(&s.cfg, fr.size(), max(holds.MaxStack(), target.MaxStack()),
		func(sc *scratch, idx uint64) (float64, bool) {
			fr.drawWorld(sc.vals, &sc.rng, idx)
			if !holds.Holds(sc.vals, sc.stack) {
				return 0, false
			}
			return target.EvalSlots(sc.vals, sc.stack), true
		})

	maxAttempts := s.cfg.MaxSamples * 100
	var acc Accumulator
	attempts := 0
	if fixed := s.cfg.FixedSamples; fixed > 0 {
		// Fixed budget: collect accepted values with their attempt indices
		// and truncate to exactly `fixed` in attempt order — the same mean
		// and attempt count a per-sample loop stopping at the fixed-th
		// acceptance would produce, at any worker count.
		maxAttempts = fixed * 1000
		var values []float64
		var idxs []int
		for len(values) < fixed && attempts < maxAttempts {
			round := worldRoundSize(attempts, maxAttempts)
			if round <= 0 {
				break
			}
			wb, err := we.runRound(attempts, round, true)
			if err != nil {
				return Result{Err: err}
			}
			values = append(values, wb.values...)
			idxs = append(idxs, wb.idxs...)
			attempts += wb.attempts
		}
		if len(values) >= fixed && fixed > 0 {
			// Truncate the attempt count to the fixed-th acceptance even
			// when the round landed exactly on the budget, so the getP
			// probability matches a per-sample loop's stopping point.
			attempts = idxs[fixed-1] + 1
			values = values[:fixed]
		}
		for _, v := range values {
			acc.Add(v)
		}
	} else {
		z := s.cfg.zTarget()
		for s.cfg.wantMore(acc, z) && attempts < maxAttempts {
			round := worldRoundSize(attempts, maxAttempts)
			if round <= 0 {
				break
			}
			wb, err := we.runRound(attempts, round, false)
			if err != nil {
				return Result{Err: err}
			}
			acc.Merge(wb.acc)
			attempts += wb.attempts
		}
	}

	res := Result{N: acc.N}
	if acc.N == 0 {
		res.Mean = math.NaN()
		res.Prob = 0
		return res
	}
	res.Mean = acc.Mean()
	res.StdErr = acc.StdErr()
	res.Prob = 1
	if getP {
		res.Prob = float64(acc.N) / float64(attempts)
	}
	return res
}

// partition wraps cond.Partition with the DisableIndependence ablation: when
// disabled, all atoms and variables are merged into one group.
func (s *Sampler) partition(c cond.Clause, extras []*expr.Variable) []cond.Group {
	groups := cond.Partition(c, extras)
	if !s.cfg.DisableIndependence || len(groups) <= 1 {
		return groups
	}
	merged := cond.Group{Vars: map[expr.VarKey]*expr.Variable{}}
	for _, g := range groups {
		merged.Atoms = append(merged.Atoms, g.Atoms...)
		for k, v := range g.Vars {
			if _, seen := merged.Vars[k]; !seen {
				merged.Vars[k] = v
				merged.Keys = append(merged.Keys, k)
			}
		}
	}
	sortVarKeys(merged.Keys)
	return []cond.Group{merged}
}

func sortedKeys(vars map[expr.VarKey]*expr.Variable) []expr.VarKey {
	keys := make([]expr.VarKey, 0, len(vars))
	for k := range vars {
		keys = append(keys, k)
	}
	sortVarKeys(keys)
	return keys
}

func sortVarKeys(keys []expr.VarKey) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].Less(keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
