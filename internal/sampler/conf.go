package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

// Conf computes the probability of a conjunctive clause — the confidence of
// a c-table row (paper §V-C conf()). Independent groups multiply; each
// group is integrated exactly via CDFs when it reduces to a single-variable
// interval (Algorithm 4.3 line 32) or an interval on one linear form of
// Gaussian variables, and by (bounded, CDF-restricted) rejection sampling
// otherwise.
func (s *Sampler) Conf(c cond.Clause) Result {
	if c.IsTrue() {
		return Result{Mean: math.NaN(), Prob: 1, Exact: true}
	}
	// A clause that is one interval on a linear form of several Gaussian
	// variables is a single group whose integral is closed-form: skip the
	// consistency check and the partition. (A single variable takes the
	// group path below, where its class's own CDF integrates it.)
	if !s.cfg.DisableExactCDF && !s.cfg.DisableClosedForm {
		if lg, ok := asLinearGaussian(c); ok && len(lg.keys) > 1 {
			s.cfg.Stats.AddExactCDFHit()
			return Result{Mean: math.NaN(), Prob: lg.prob(), Exact: true}
		}
	}
	res := cond.CheckConsistency(c)
	if res.Verdict == cond.Inconsistent {
		return Result{Mean: math.NaN(), Prob: 0, Exact: true}
	}
	groups := s.partition(c, nil)
	prob := 1.0
	exact := true
	n := 0
	for _, g := range groups {
		p, ex, gn, err := s.clauseProbDetail(g)
		if err != nil {
			return Result{Err: err}
		}
		prob *= p
		exact = exact && ex
		n += gn
		if prob == 0 {
			break
		}
	}
	return Result{Mean: math.NaN(), Prob: prob, Exact: exact, N: n}
}

// AConf computes the probability of a DNF condition — the paper's aconf()
// general integrator, needed once DISTINCT has introduced disjunctions. For
// a small number of clauses it applies inclusion–exclusion over exact/conf
// clause probabilities; beyond that it falls back to world sampling.
func (s *Sampler) AConf(d cond.Condition) Result {
	switch {
	case d.IsFalse():
		return Result{Mean: math.NaN(), Prob: 0, Exact: true}
	case d.IsTrue():
		return Result{Mean: math.NaN(), Prob: 1, Exact: true}
	case len(d.Clauses) == 1:
		return s.Conf(d.Clauses[0])
	}
	const inclExclLimit = 12
	if len(d.Clauses) <= inclExclLimit {
		return s.aconfInclusionExclusion(d)
	}
	r := s.worldSampleDNF(expr.Const(0), d, true)
	if r.Err != nil {
		return Result{Err: r.Err}
	}
	return Result{Mean: math.NaN(), Prob: r.Prob, N: r.N}
}

// aconfInclusionExclusion computes P[C1 or ... or Cn] as
// sum over non-empty subsets S of (-1)^(|S|+1) P[and of S].
func (s *Sampler) aconfInclusionExclusion(d cond.Condition) Result {
	n := len(d.Clauses)
	total := 0.0
	exact := true
	samples := 0
	for mask := 1; mask < 1<<n; mask++ {
		var merged cond.Clause
		ok := true
		bits := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			bits++
			merged, ok = merged.AndClause(d.Clauses[i])
			if !ok {
				break
			}
		}
		if !ok {
			continue // deterministically false intersection contributes 0
		}
		r := s.Conf(merged)
		if r.Err != nil {
			return Result{Err: r.Err}
		}
		exact = exact && r.Exact
		samples += r.N
		if bits%2 == 1 {
			total += r.Prob
		} else {
			total -= r.Prob
		}
	}
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return Result{Mean: math.NaN(), Prob: total, Exact: exact, N: samples}
}

// clauseProbDetail integrates one minimal independent group, reporting
// whether the result is exact and how many samples were spent. A sampler is
// built only when the group has to be sampled.
func (s *Sampler) clauseProbDetail(g cond.Group) (prob float64, exact bool, n int, err error) {
	if p, ok := s.exactGroupProb(g); ok {
		return p, true, 0, nil
	}
	gs, err := newGroupSampler(g, &s.cfg)
	if err != nil {
		return 0, false, 0, err
	}
	return s.sampleGroupProb(gs)
}

// exactGroupProb integrates a group without sampling when it is atom-free,
// reduces to a single-variable interval (Algorithm 4.3 line 32), or is an
// interval on one linear form of jointly Gaussian variables (closedform.go).
func (s *Sampler) exactGroupProb(g cond.Group) (float64, bool) {
	if len(g.Atoms) == 0 {
		return 1, true
	}
	if s.cfg.DisableExactCDF {
		return 0, false
	}
	if p, ok := exactSingleVarProb(g); ok {
		s.cfg.Stats.AddExactCDFHit()
		return p, true
	}
	if !s.cfg.DisableClosedForm {
		if lg, ok := asLinearGaussian(g.Atoms); ok {
			s.cfg.Stats.AddExactCDFHit()
			return lg.prob(), true
		}
	}
	return 0, false
}

// probOf multiplies prob by each group's probability, in order: a sampled
// group's free estimate when it has one (Algorithm 4.3 line 29), else the
// exact integral when possible, else the group's candidate stream. The error
// is the context's.
func (s *Sampler) probOf(prob float64, groups []*groupSampler) (float64, error) {
	for _, gs := range groups {
		p, ok := gs.probEstimate()
		if !ok {
			p, ok = s.exactGroupProb(gs.group)
		}
		if !ok {
			var err error
			if p, _, _, err = s.sampleGroupProb(gs); err != nil {
				return 0, err
			}
		}
		prob *= p
	}
	return prob, nil
}

// sampleGroupProb estimates P[group atoms] by counting acceptances of the
// group sampler's candidate stream (CDF-restricted when possible, with the
// restriction's prior mass folded back in). Candidate indices shard across
// the worker pool: a candidate is a pure function of its index and the draw
// only reads the shared plan and compiled atoms, and the 0/1 indicator
// accumulators merge in batch order, so the estimate is identical for any
// worker count. Only the plan is used — never the sampler's counters or
// chain — so no Metropolis pilot runs here.
func (s *Sampler) sampleGroupProb(gs *groupSampler) (prob float64, exact bool, n int, err error) {
	if gs.inconsistent {
		return 0, true, 0, nil
	}
	we := gs.indicatorEngine()
	var acc Accumulator
	z := s.cfg.zTarget()
	for s.cfg.wantMore(acc, z) {
		round := s.cfg.nextRoundSize(acc.N)
		if round <= 0 {
			break
		}
		wb, err := we.runRound(acc.N, round, false)
		if err != nil {
			return 0, false, 0, err
		}
		acc.Merge(wb.acc)
	}
	if acc.N == 0 {
		return 0, false, 0, nil
	}
	return gs.massFraction * acc.Sum / float64(acc.N), false, acc.N, nil
}

// indicatorEngine returns the world engine over the group's candidate stream
// (attempt 0xC0): every candidate counts, valued 1 when the atoms hold.
func (gs *groupSampler) indicatorEngine() *worldEngine {
	return newWorldEngine(gs.cfg, gs.fr.size(), gs.atoms.MaxStack(), func(sc *scratch, idx uint64) (float64, bool) {
		gs.fr.drawCandidate(sc.vals, &sc.rng, idx, 0xC0)
		if gs.atoms.Holds(sc.vals, sc.stack) {
			return 1, true
		}
		return 0, true
	})
}

// exactSingleVarProb integrates the group exactly when (a) it mentions a
// single scalar variable, (b) every atom is linear in that variable, and
// (c) the variable's class exposes a CDF. Strict and non-strict bounds are
// distinguished so that discrete (integer-valued) distributions integrate
// correctly; for continuous distributions strictness carries no mass.
func exactSingleVarProb(g cond.Group) (float64, bool) {
	if len(g.Keys) != 1 {
		return 0, false
	}
	k := g.Keys[0]
	v := g.Vars[k]
	cdfClass, hasCDF := v.Dist.Class.(dist.CDFer)
	if !hasCDF {
		return 0, false
	}
	cdf := func(x float64) float64 { return cdfClass.CDF(v.Dist.Params, x) }

	// Accumulate the satisfying region as an interval with strictness
	// flags plus excluded points (from <> atoms).
	lo, hi := math.Inf(-1), math.Inf(1)
	loStrict, hiStrict := false, false
	var excluded []float64
	var pinned *float64

	for _, a := range g.Atoms {
		lf, ok := expr.Linearize(expr.Sub(a.Left, a.Right))
		if !ok {
			return 0, false
		}
		coef := lf.Coeffs[k]
		if coef == 0 || len(lf.Coeffs) != 1 {
			return 0, false
		}
		// coef*X + c (op) 0  =>  X (op') t where t = -c/coef, flipping the
		// operator when coef < 0.
		t := -lf.Constant / coef
		op := a.Op
		if coef < 0 {
			op = flipForNegation(op)
		}
		switch op {
		case cond.GT:
			if t > lo || (t == lo && !loStrict) {
				lo, loStrict = t, true
			}
		case cond.GE:
			if t > lo {
				lo, loStrict = t, false
			}
		case cond.LT:
			if t < hi || (t == hi && !hiStrict) {
				hi, hiStrict = t, true
			}
		case cond.LE:
			if t < hi {
				hi, hiStrict = t, false
			}
		case cond.EQ:
			if pinned != nil && *pinned != t {
				return 0, true
			}
			tt := t
			pinned = &tt
		case cond.NEQ:
			excluded = append(excluded, t)
		}
	}

	discrete := isIntegerValued(v.Dist)
	pdfClass, hasPDF := v.Dist.Class.(dist.PDFer)
	pmf := func(x float64) float64 {
		if !hasPDF {
			return 0
		}
		return pdfClass.PDF(v.Dist.Params, x)
	}

	if pinned != nil {
		x := *pinned
		if x < lo || x > hi || (x == lo && loStrict) || (x == hi && hiStrict) {
			return 0, true
		}
		for _, e := range excluded {
			if e == x {
				return 0, true
			}
		}
		if !discrete {
			return 0, true // zero mass (paper §III-C item 3)
		}
		if !hasPDF {
			return 0, false
		}
		return pmf(x), true
	}

	if discrete {
		// Integerize the bounds: the CDF of our integer-valued classes is a
		// right-continuous step function at integers.
		iLo := math.Ceil(lo)
		if loStrict && iLo == lo {
			iLo = lo + 1
		}
		iHi := math.Floor(hi)
		if hiStrict && iHi == hi {
			iHi = hi - 1
		}
		if iLo > iHi {
			return 0, true
		}
		p := cdfAt(cdf, iHi) - cdfAt(cdf, iLo-1)
		for _, e := range excluded {
			if e == math.Floor(e) && e >= iLo && e <= iHi && hasPDF {
				p -= pmf(e)
			} else if e == math.Floor(e) && e >= iLo && e <= iHi {
				return 0, false // cannot subtract unknown point mass
			}
		}
		return clamp01(p), true
	}

	if lo > hi || (lo == hi && (loStrict || hiStrict)) {
		return 0, true
	}
	p := cdfAt(cdf, hi) - cdfAt(cdf, lo)
	return clamp01(p), true
}

func cdfAt(cdf func(float64) float64, x float64) float64 {
	switch {
	case math.IsInf(x, 1):
		return 1
	case math.IsInf(x, -1):
		return 0
	default:
		return cdf(x)
	}
}

// flipForNegation maps op to the op obtained when both sides of
// "coef*X op t" are divided by a negative coefficient.
func flipForNegation(op cond.CmpOp) cond.CmpOp {
	switch op {
	case cond.GT:
		return cond.LT
	case cond.GE:
		return cond.LE
	case cond.LT:
		return cond.GT
	case cond.LE:
		return cond.GE
	default:
		return op
	}
}

// isIntegerValued reports whether the class's samples are always integers
// (Poisson is integer-valued but has countable support, so it implements
// IntegerValued without Discreter). Delegating to the dist-layer
// capability keeps extension classes registered via dist.Register on the
// correct discrete interval semantics.
func isIntegerValued(in dist.Instance) bool {
	return in.IntegerValued()
}

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
