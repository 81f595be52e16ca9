package sampler

import (
	"math"
	"slices"

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
		if lg, ok := asLinearGaussian(c); ok && len(lg.s.Terms) > 1 {
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
// single scalar variable X, (b) reduceAtoms bounds X by every atom, and (c)
// X's class exposes a CDF. Strict and non-strict bounds are distinguished so
// that integer-valued classes integrate correctly; for continuous classes
// strictness carries no mass.
//
// On an integer-valued class the thresholds, quotients −c/r, may land an
// ulp off the integer that an atom as evaluated decides (0.7·X ≤
// 4.199999999999999 holds at X = 6, but the quotient is 5.999999999999999),
// so the integers next to each threshold are decided by the atoms
// themselves.
func exactSingleVarProb(g cond.Group) (float64, bool) {
	if len(g.Keys) != 1 {
		return 0, false
	}
	k := g.Keys[0]
	in := g.Vars[k].Dist
	if _, ok := in.Class.(dist.CDFer); !ok {
		return 0, false
	}
	_, iv, ok := reduceAtoms(g.Atoms, expr.LinearForm{Terms: []expr.Term{{Key: k, V: g.Vars[k], C: 1}}})
	if !ok {
		return 0, false
	}
	if !in.IntegerValued() {
		if iv.pinned || iv.lo == iv.hi && (iv.loStrict || iv.hiStrict) || iv.lo > iv.hi {
			return 0, true // a point, or empty: zero mass (§III-C item 3)
		}
		a, b := intervalMass(in, cond.Interval{Lo: iv.lo, Hi: iv.hi})
		return math.Max(b-a, 0), true
	}
	asn := expr.Assignment{k: 0}
	holds := func(x float64) bool {
		asn[k] = x
		return g.Atoms.Holds(asn)
	}
	if iv.pinned {
		p := 0.0
		for _, x := range nearInts(iv.pin) {
			if holds(x) {
				mass, ok := in.PDF(x)
				if !ok {
					return 0, false
				}
				p += mass
			}
		}
		return p, true
	}
	// Integerize the bounds: the CDF of an integer-valued class is a
	// right-continuous step function at the integers.
	lo, hi := math.Ceil(iv.lo), math.Floor(iv.hi)
	if iv.loStrict && lo == iv.lo {
		lo++
	}
	if iv.hiStrict && hi == iv.hi {
		hi--
	}
	if !math.IsInf(lo, 0) {
		if holds(lo - 1) {
			lo--
		} else if !holds(lo) {
			lo++
		}
	}
	if !math.IsInf(hi, 0) {
		if holds(hi + 1) {
			hi++
		} else if !holds(hi) {
			hi--
		}
	}
	if lo > hi {
		return 0, true
	}
	a, b := intervalMass(in, cond.Interval{Lo: lo, Hi: hi})
	p := b - a
	var dropped []float64 // each point's mass is subtracted once
	for _, e := range iv.excluded {
		for _, x := range nearInts(e) {
			if x < lo || x > hi || slices.Contains(dropped, x) || holds(x) {
				continue
			}
			mass, ok := in.PDF(x)
			if !ok {
				return 0, false // cannot subtract unknown point mass
			}
			p -= mass
			dropped = append(dropped, x)
		}
	}
	return math.Max(p, 0), true
}

// nearInts returns the integers next to t: t itself when it is one, else
// its floor and ceiling.
func nearInts(t float64) []float64 {
	if f := math.Floor(t); f != t {
		return []float64{f, f + 1}
	}
	return []float64{t}
}

// interval is what a clause says about one linear form S: lo < S < hi, with
// ≤ where the strict flag is off, S = pin when pinned, and S ≠ each excluded
// point. lo > hi marks it empty.
type interval struct {
	lo, hi             float64
	loStrict, hiStrict bool
	pinned             bool
	pin                float64
	excluded           []float64
}

// holds reports whether S = x satisfies the interval.
func (iv interval) holds(x float64) bool {
	in := (x > iv.lo || x == iv.lo && !iv.loStrict) && (x < iv.hi || x == iv.hi && !iv.hiStrict)
	return in && !slices.Contains(iv.excluded, x)
}

// reduceAtoms reduces a clause to an interval on one linear form S: ref, or
// the first atom's form when ref is the zero value (its Constant is then
// not part of S). Every atom must be linear, its coefficients r·S's for
// some r ≠ 0: r·S + c (op) 0 reads S (op) t with t = −c/r, op flipped when
// r < 0. Every comparison with NaN is false except <>, so a NaN threshold
// empties the interval.
func reduceAtoms(atoms cond.Clause, ref expr.LinearForm) (expr.LinearForm, interval, bool) {
	iv := interval{lo: math.Inf(-1), hi: math.Inf(1)}
	for _, a := range atoms {
		lf, ok := expr.Linearize(expr.Sub(a.Left, a.Right))
		if !ok || len(lf.Terms) == 0 {
			return expr.LinearForm{}, interval{}, false
		}
		r := 1.0
		if len(ref.Terms) == 0 {
			ref = lf
		} else if r, ok = proportion(lf, ref); !ok {
			return expr.LinearForm{}, interval{}, false
		}
		t := -lf.Constant / r
		op := a.Op
		if r < 0 {
			op = flipForNegation(op)
		}
		if math.IsNaN(t) {
			if op != cond.NEQ {
				iv.lo, iv.hi = math.Inf(1), math.Inf(-1)
			}
			continue
		}
		switch op {
		case cond.GT:
			if t > iv.lo || (t == iv.lo && !iv.loStrict) {
				iv.lo, iv.loStrict = t, true
			}
		case cond.GE:
			if t > iv.lo {
				iv.lo, iv.loStrict = t, false
			}
		case cond.LT:
			if t < iv.hi || (t == iv.hi && !iv.hiStrict) {
				iv.hi, iv.hiStrict = t, true
			}
		case cond.LE:
			if t < iv.hi {
				iv.hi, iv.hiStrict = t, false
			}
		case cond.EQ:
			if iv.pinned && iv.pin != t {
				iv.lo, iv.hi = math.Inf(1), math.Inf(-1)
			}
			iv.pinned, iv.pin = true, t
		case cond.NEQ:
			if iv.holds(t) { // each point's mass is subtracted once
				iv.excluded = append(iv.excluded, t)
			}
		}
	}
	return ref, iv, true
}

// proportion returns r with lf's coefficients = r · ref's (over the same
// variables, to a relative 1e-12), so that an atom over lf bounds ref's form.
// r is read at the least key, the first term of both.
func proportion(lf, ref expr.LinearForm) (float64, bool) {
	if len(lf.Terms) != len(ref.Terms) {
		return 0, false
	}
	r := lf.Terms[0].C / ref.Terms[0].C
	if r == 0 || math.IsNaN(r) {
		return 0, false
	}
	for i, t := range ref.Terms {
		b, want := lf.Terms[i], r*t.C
		if b.Key != t.Key || math.Abs(b.C-want) > 1e-12*math.Max(math.Abs(b.C), math.Abs(want)) {
			return 0, false
		}
	}
	return r, true
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
