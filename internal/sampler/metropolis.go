package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/prng"
)

// metroState runs a Metropolis random walk over one constraint group
// (paper §IV-A-d). The target density is the prior joint density of the
// group's variables restricted to the constraint region (the indicator
// enters the acceptance test), so samples taken at thinned intervals are
// approximately distributed as the conditional distribution given the
// group's atoms.
//
// Metropolis carries an expensive burn-in but cheap per-sample steps; the
// group sampler escalates to it only when rejection sampling's observed
// rejection rate crosses the configured threshold, mirroring the
// W_metropolis vs W_naive comparison in the paper.
type metroState struct {
	gs *groupSampler
	// The walk's points live in the group frame's slot order (every variable
	// of the group is a scalar of the walk). cur is the chain's position,
	// prop the proposal under test; an accepted move swaps them.
	cur, prop []float64
	step      []float64
	// in[i] is slot i's distribution and pdf[i] its density, resolved once
	// so a walk step makes no map lookup and no interface assertion.
	in    []dist.Instance
	pdf   []dist.PDFer
	logP  float64
	rng   prng.Rand
	stack []float64
}

// newMetroState builds the walk if every group variable has a PDF
// (Algorithm 4.3 line 20) and a satisfying start point can be found
// (line 22–23); otherwise it returns nil.
func newMetroState(gs *groupSampler, sampleIdx uint64) *metroState {
	n := gs.fr.size()
	buf := make([]float64, 3*n+gs.atoms.MaxStack())
	m := &metroState{
		gs:    gs,
		cur:   buf[:n:n],
		prop:  buf[n : 2*n : 2*n],
		step:  buf[2*n : 3*n : 3*n],
		stack: buf[3*n:],
		in:    make([]dist.Instance, n),
		pdf:   make([]dist.PDFer, n),
	}
	m.rng.Reseed(prng.MixKey(gs.cfg.WorldSeed, 0x4d657472, sampleIdx)) // "Metr"
	for i, k := range gs.group.Keys {
		v := gs.group.Vars[k]
		pdf, ok := v.Dist.Class.(dist.PDFer)
		if !ok {
			return nil
		}
		if _, multi := v.Dist.Class.(dist.Multivariater); multi {
			// Joint densities are not exposed; the walk cannot target them.
			return nil
		}
		m.in[i], m.pdf[i] = v.Dist, pdf
		// Step size: distribution scale if known, else bounds width, else 1.
		s := 1.0
		if variance, ok := v.Dist.Variance(); ok && variance > 0 {
			s = math.Sqrt(variance) / 2
		} else if iv := gs.bounds.Get(k); iv.Bounded() && !math.IsInf(iv.Hi-iv.Lo, 1) {
			s = (iv.Hi - iv.Lo) / 4
		}
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			s = 1
		}
		m.step[i] = s
	}
	if !m.findStart() {
		return nil
	}
	// Burn-in.
	for i := 0; i < gs.cfg.MetropolisBurnIn; i++ {
		m.walkStep()
	}
	return m
}

// holds tests the group's atoms at a point of the walk.
func (m *metroState) holds(pt []float64) bool {
	return m.gs.atoms.Holds(pt, m.stack)
}

// findStart scans for a constraint-satisfying start point (Algorithm 4.3
// line 22) into cur: first by natural sampling, then by bounds midpoints.
func (m *metroState) findStart() bool {
	keys := m.gs.group.Keys
	pt := m.cur
	const scanAttempts = 5000
	for i := 0; i < scanAttempts; i++ {
		for j := range keys {
			pt[j] = m.in[j].Generate(&m.rng)
		}
		if m.holds(pt) {
			m.logP = m.logDensity(pt)
			return true
		}
	}
	// Bounds midpoints as a deterministic fallback.
	for j, k := range keys {
		iv := m.gs.bounds.Get(k)
		switch {
		case iv.Bounded() && !math.IsInf(iv.Lo, -1) && !math.IsInf(iv.Hi, 1):
			pt[j] = (iv.Lo + iv.Hi) / 2
		case !math.IsInf(iv.Lo, -1):
			pt[j] = iv.Lo + 1
		case !math.IsInf(iv.Hi, 1):
			pt[j] = iv.Hi - 1
		default:
			pt[j] = 0
		}
	}
	// Constraint repair: walk each violated linear atom into satisfaction
	// by moving its largest-coefficient variable. This finds start points
	// for deep-tail constraints (e.g. Y1+Y2 > 6 for standard normals)
	// where natural scanning is hopeless.
	if m.holds(pt) || m.repairStart(pt) {
		m.logP = m.logDensity(pt)
		return true
	}
	return false
}

// repairStart iteratively fixes violated linear atoms in place. Returns
// true once every atom holds.
func (m *metroState) repairStart(pt []float64) bool {
	const rounds = 500
	for round := 0; round < rounds; round++ {
		violated := false
		for ai, a := range m.gs.group.Atoms {
			if m.gs.atoms.AtomHolds(ai, pt, m.stack) {
				continue
			}
			violated = true
			lf, ok := expr.Linearize(expr.Sub(a.Left, a.Right))
			if !ok {
				return false // non-linear atoms cannot be repaired
			}
			// Current value of coef-sum; move the variable with the
			// largest coefficient magnitude to restore the inequality
			// with a margin. Terms are visited in key order, so the
			// floating-point sum and the tie-break for bestK are the same
			// on every run.
			val := lf.Constant
			var bestK expr.VarKey
			bestC, bestSlot := 0.0, 0
			for _, t := range lf.Terms {
				slot, _ := m.gs.fr.table.Slot(t.Key) // atoms mention group variables only
				val += t.C * pt[slot]
				if math.Abs(t.C) > math.Abs(bestC) {
					bestC, bestK, bestSlot = t.C, t.Key, slot
				}
			}
			if bestC == 0 {
				return false
			}
			margin := math.Abs(val)*0.1 + 1e-3
			var target float64
			switch a.Op {
			case cond.GT, cond.GE:
				target = margin // want val' = +margin
			case cond.LT, cond.LE:
				target = -margin
			case cond.EQ:
				target = 0
			case cond.NEQ:
				target = margin
			}
			pt[bestSlot] += (target - val) / bestC
			// Respect hard bounds if known.
			if iv := m.gs.bounds.Get(bestK); iv.Bounded() {
				if pt[bestSlot] < iv.Lo {
					pt[bestSlot] = iv.Lo
				}
				if pt[bestSlot] > iv.Hi {
					pt[bestSlot] = iv.Hi
				}
			}
		}
		if !violated {
			return true
		}
	}
	return m.holds(pt)
}

// logDensity returns the log prior density of a point.
func (m *metroState) logDensity(pt []float64) float64 {
	lp := 0.0
	for i, pdf := range m.pdf {
		p := pdf.PDF(m.in[i].Params, pt[i])
		if p <= 0 {
			return math.Inf(-1)
		}
		lp += math.Log(p)
	}
	return lp
}

// walkStep proposes a Gaussian move on every coordinate (slot order) and
// accepts with the Metropolis ratio restricted to the constraint region.
func (m *metroState) walkStep() {
	for i, c := range m.cur {
		m.prop[i] = c + m.step[i]*m.rng.NormFloat64()
	}
	if !m.holds(m.prop) {
		m.gs.cfg.Stats.AddMetropolis(false)
		return
	}
	lp := m.logDensity(m.prop)
	if lp >= m.logP || m.rng.Float64() < math.Exp(lp-m.logP) {
		m.gs.cfg.Stats.AddMetropolis(true)
		m.cur, m.prop = m.prop, m.cur
		m.logP = lp
		return
	}
	m.gs.cfg.Stats.AddMetropolis(false)
}

// next advances the chain by the thinning interval and writes the current
// point into vals (the group's window of the caller's scratch).
func (m *metroState) next(vals []float64) bool {
	thin := m.gs.cfg.MetropolisThin
	if thin < 1 {
		thin = 1
	}
	for i := 0; i < thin; i++ {
		m.walkStep()
	}
	copy(vals, m.cur)
	return true
}
