package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

// Closed forms: answers the algebra already determines, so no sample is drawn
// ("potentially even sidestep [sampling] entirely", §III-A; Algorithm 4.3
// lines 32–33). Every one of them sits behind Config.DisableClosedForm.
//
//   - linear-Gaussian probability: a group whose variables are jointly
//     Gaussian (univariate Normals, MVNormal components) and whose atoms all
//     bound one linear form S is an interval on S ~ N(μ_S, σ_S²);
//   - conditional mean of a linear target T over such a group:
//     E[T | a < S < b] = μ_T + Cov(T,S)/σ_S · (φ(α)−φ(β))/(Φ(β)−Φ(α));
//   - unconditional means of polynomial targets of degree ≤ 2:
//     E[X²] = Var + μ², E[XᵢXⱼ] = μᵢμⱼ for independent variables (MVNormal
//     components: Σᵢⱼ + μᵢμⱼ).

// gaussMean returns the mean of v when v is jointly Gaussian with every other
// Gaussian variable: a univariate Normal or a component of an MVNormal.
func gaussMean(v *expr.Variable) (float64, bool) {
	switch v.Dist.Class.(type) {
	case dist.Normal:
		return v.Dist.Params[0], true
	case dist.MVNormal:
		p := v.Dist.Params
		if sub := v.Key.Subscript; sub >= 0 && sub < int(p[0]) {
			return p[1+sub], true
		}
	}
	return 0, false
}

// gaussCov returns Cov(a, b) of two Gaussian variables (see gaussMean).
// Variables with distinct ids are drawn independently; components of one
// MVNormal covary through its Cholesky factor, Σ = L·Lᵀ.
func gaussCov(a, b *expr.Variable) float64 {
	if a.Key.ID != b.Key.ID {
		return 0
	}
	if _, ok := a.Dist.Class.(dist.MVNormal); !ok {
		sd := a.Dist.Params[1]
		return sd * sd
	}
	return mvCov(a.Dist.Params, a.Key.Subscript, b.Key.Subscript)
}

// mvCov returns Σᵢⱼ = Σₖ LᵢₖLⱼₖ of an MVNormal parameter vector.
func mvCov(p []float64, i, j int) float64 {
	chol := p[1+int(p[0]):]
	ri, rj := chol[i*(i+1)/2:], chol[j*(j+1)/2:]
	sum := 0.0
	for k := 0; k <= min(i, j); k++ {
		sum += ri[k] * rj[k]
	}
	return sum
}

// linearGaussian is a constraint group reduced to one open interval
// lo < S < hi on a linear form S = Σ aₖXₖ of jointly Gaussian variables.
type linearGaussian struct {
	s        expr.LinearForm // S; its Constant is not part of S
	keys     []expr.VarKey   // S's variables, sorted
	mean, sd float64         // of S
	lo, hi   float64
}

// asLinearGaussian reports whether the atoms qualify for the linear-Gaussian
// closed forms: there is at least one, every atom is the same linear form S
// up to a nonzero scale, and every variable of S is Gaussian (a variable
// whose coefficients cancel is not part of S and cannot move the event).
// Strictness carries no mass for a continuous S, and a <> atom excludes a
// single point; an = atom pins S to a point and is left to the general path.
func asLinearGaussian(atoms cond.Clause) (linearGaussian, bool) {
	if len(atoms) == 0 {
		return linearGaussian{}, false
	}
	lg := linearGaussian{lo: math.Inf(-1), hi: math.Inf(1)}
	for i, a := range atoms {
		lf, ok := expr.Linearize(expr.Sub(a.Left, a.Right))
		if !ok || len(lf.Coeffs) == 0 {
			return linearGaussian{}, false
		}
		r := 1.0
		if i == 0 {
			lg.s, lg.keys = lf, lf.SortedKeys()
		} else if r, ok = proportion(lf, lg.s, lg.keys); !ok {
			return linearGaussian{}, false
		}
		// r·S + c (op) 0  =>  S (op') −c/r, flipping op when r < 0.
		t := -lf.Constant / r
		op := a.Op
		if r < 0 {
			op = flipForNegation(op)
		}
		switch op {
		case cond.GT, cond.GE:
			lg.lo = math.Max(lg.lo, t)
		case cond.LT, cond.LE:
			lg.hi = math.Min(lg.hi, t)
		case cond.NEQ:
		default:
			return linearGaussian{}, false
		}
	}
	variance := 0.0
	for _, ki := range lg.keys {
		vi := lg.s.Vars[ki]
		m, ok := gaussMean(vi)
		if !ok {
			return linearGaussian{}, false
		}
		lg.mean += lg.s.Coeffs[ki] * m
		for _, kj := range lg.keys {
			variance += lg.s.Coeffs[ki] * lg.s.Coeffs[kj] * gaussCov(vi, lg.s.Vars[kj])
		}
	}
	lg.sd = math.Sqrt(variance)
	if !(lg.sd > 0) || math.IsInf(lg.sd, 0) {
		return linearGaussian{}, false
	}
	return lg, true
}

// proportion returns r with lf's coefficients = r · ref's (over the same
// variables, to a relative 1e-12), so that an atom over lf bounds ref's form.
func proportion(lf, ref expr.LinearForm, refKeys []expr.VarKey) (float64, bool) {
	if len(lf.Coeffs) != len(refKeys) {
		return 0, false
	}
	r := lf.Coeffs[refKeys[0]] / ref.Coeffs[refKeys[0]]
	if r == 0 || math.IsNaN(r) {
		return 0, false
	}
	for _, k := range refKeys {
		b, ok := lf.Coeffs[k]
		want := r * ref.Coeffs[k]
		if !ok || math.Abs(b-want) > 1e-12*math.Max(math.Abs(b), math.Abs(want)) {
			return 0, false
		}
	}
	return r, true
}

// bounds returns the interval's edges in standard units of S.
func (lg linearGaussian) bounds() (alpha, beta float64) {
	return (lg.lo - lg.mean) / lg.sd, (lg.hi - lg.mean) / lg.sd
}

// prob returns P[lo < S < hi] = Φ(β) − Φ(α), taken from the tail it lies in
// so that rare events keep their relative precision instead of rounding to 0.
func (lg linearGaussian) prob() float64 {
	if lg.lo >= lg.hi {
		return 0
	}
	alpha, beta := lg.bounds()
	if alpha > 0 {
		return 0.5 * (math.Erfc(alpha/math.Sqrt2) - math.Erfc(beta/math.Sqrt2))
	}
	return 0.5 * (math.Erfc(-beta/math.Sqrt2) - math.Erfc(-alpha/math.Sqrt2))
}

// condMean returns E[T | lo < S < hi] for a linear target T, given
// p = P[lo < S < hi] > 0; ok is false unless T's variables are Gaussian.
func (lg linearGaussian) condMean(t expr.LinearForm, p float64) (float64, bool) {
	mean, cov := t.Constant, 0.0
	for _, k := range t.SortedKeys() {
		v := t.Vars[k]
		m, ok := gaussMean(v)
		if !ok {
			return 0, false
		}
		mean += t.Coeffs[k] * m
		for _, ks := range lg.keys {
			cov += t.Coeffs[k] * lg.s.Coeffs[ks] * gaussCov(v, lg.s.Vars[ks])
		}
	}
	alpha, beta := lg.bounds()
	return mean + cov/lg.sd*(stdNormalPDF(alpha)-stdNormalPDF(beta))/p, true
}

// stdNormalPDF is φ(z); φ(±∞) = 0 falls out of math.Exp(−∞).
func stdNormalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// exactConditionalMean answers E[e | c] (and P[c] when getP) without sampling
// when e is linear and every variable of e lies in one constraint group that
// is linear-Gaussian. The other groups only scale the probability. ok is
// false when the shape does not qualify, or when P underflows so the ratio
// is unusable; the caller then samples.
func (s *Sampler) exactConditionalMean(e expr.Expr, groups []cond.Group, eKeys map[expr.VarKey]bool, getP bool) (Result, bool) {
	t, ok := expr.Linearize(e)
	if !ok || len(t.Coeffs) == 0 {
		return Result{}, false
	}
	target := -1
	for i, g := range groups {
		if g.Touches(eKeys) {
			if target >= 0 {
				return Result{}, false
			}
			target = i
		}
	}
	if target < 0 {
		return Result{}, false
	}
	lg, ok := asLinearGaussian(groups[target].Atoms)
	if !ok {
		return Result{}, false
	}
	if lg.lo >= lg.hi {
		return Result{Mean: math.NaN(), Prob: 0, Exact: true}, true
	}
	p := lg.prob()
	mean, ok := lg.condMean(t, p)
	if !ok || !(p > 0) || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return Result{}, false
	}
	prob := 1.0
	if getP {
		prob = p
		s.cfg.Stats.AddExactCDFHit()
	}
	var others []*groupSampler
	for i, g := range groups {
		if i == target {
			continue
		}
		gs, err := newGroupSampler(g, &s.cfg)
		if err != nil {
			return Result{Err: err}, true
		}
		if gs.inconsistent {
			return Result{Mean: math.NaN(), Prob: 0, Exact: true}, true
		}
		others = append(others, gs)
	}
	if getP {
		var err error
		if prob, err = s.probOf(prob, others); err != nil {
			return Result{Err: err}, true
		}
	}
	s.cfg.Stats.AddClosedFormHit()
	return Result{Mean: mean, Prob: prob, Exact: true}, true
}

// closedFormMean computes E[e] exactly when e is a polynomial of degree ≤ 2
// whose variables are independent across ids and expose closed-form first
// and second moments. Linearity of expectation needs no independence; the
// product terms do, which holds for the unconstrained variables this is
// called on (distinct ids are drawn independently, and components of one
// MVNormal covary through its Σ).
func closedFormMean(e expr.Expr) (float64, bool) {
	switch d := e.Degree(); {
	case d == 0 || d == 1:
		lf, ok := expr.Linearize(e)
		if !ok {
			return 0, false
		}
		return linearMean(lf)
	case d != 2:
		return 0, false
	}
	terms, ok := expandQuadratic(e, 1, nil)
	if !ok {
		return 0, false
	}
	// E is linear in the terms; summing them in expansion order keeps the
	// result a pure function of the expression.
	mean := 0.0
	for _, t := range terms {
		m := 1.0
		switch {
		case t.y != nil:
			m, ok = productMean(t.x, t.y)
		case t.x != nil:
			m, ok = varMean(t.x)
		}
		if !ok {
			return 0, false
		}
		mean += t.c * m
	}
	return mean, true
}

// linearMean returns E[c0 + Σ cᵢXᵢ], accumulated in sorted key order: float
// addition is not associative, so map-order summation would break same-seed
// bit-identity.
func linearMean(lf expr.LinearForm) (float64, bool) {
	mean := lf.Constant
	for _, k := range lf.SortedKeys() {
		m, ok := varMean(lf.Vars[k])
		if !ok {
			return 0, false
		}
		mean += lf.Coeffs[k] * m
	}
	return mean, true
}

// varMean is the closed-form mean of one variable, MVNormal components
// included.
func varMean(v *expr.Variable) (float64, bool) {
	if m, ok := v.Dist.Mean(); ok {
		return m, true
	}
	if _, ok := v.Dist.Class.(dist.MVNormal); ok {
		return gaussMean(v)
	}
	return 0, false
}

// productMean returns E[XY]: Var + μ² for one variable, Σᵢⱼ + μᵢμⱼ for two
// components of one MVNormal, and μₓμᵧ for variables with distinct ids.
func productMean(x, y *expr.Variable) (float64, bool) {
	mx, okX := varMean(x)
	my, okY := varMean(y)
	if !okX || !okY {
		return 0, false
	}
	if _, mv := x.Dist.Class.(dist.MVNormal); mv && x.Key.ID == y.Key.ID {
		return mvCov(x.Dist.Params, x.Key.Subscript, y.Key.Subscript) + mx*my, true
	}
	switch {
	case x.Key == y.Key:
		v, ok := x.Dist.Variance()
		return v + mx*mx, ok
	case x.Key.ID != y.Key.ID:
		return mx * my, true
	}
	return 0, false
}

// monomial is the term c·x·y of a polynomial; y is nil for a term of degree
// one, and x too for a constant.
type monomial struct {
	c    float64
	x, y *expr.Variable
}

// expandQuadratic appends the monomials of scale·e to out, reporting false
// when e is not a polynomial of degree ≤ 2.
func expandQuadratic(e expr.Expr, scale float64, out []monomial) ([]monomial, bool) {
	switch t := e.(type) {
	case expr.Const:
		return append(out, monomial{c: scale * float64(t)}), true
	case expr.Var:
		return append(out, monomial{c: scale, x: t.V}), true
	case expr.Neg:
		return expandQuadratic(t.X, -scale, out)
	case expr.Bin:
		switch t.Op {
		case expr.OpAdd, expr.OpSub:
			out, ok := expandQuadratic(t.Left, scale, out)
			if !ok {
				return nil, false
			}
			if t.Op == expr.OpSub {
				scale = -scale
			}
			return expandQuadratic(t.Right, scale, out)
		case expr.OpMul:
			if t.Left.Degree() == 0 {
				return expandQuadratic(t.Right, scale*t.Left.Eval(nil), out)
			}
			if t.Right.Degree() == 0 {
				return expandQuadratic(t.Left, scale*t.Right.Eval(nil), out)
			}
			l, okL := expandQuadratic(t.Left, scale, nil)
			r, okR := expandQuadratic(t.Right, 1, nil)
			if !okL || !okR {
				return nil, false
			}
			for _, a := range l {
				for _, b := range r {
					m := monomial{c: a.c * b.c}
					switch {
					case a.x == nil:
						m.x, m.y = b.x, b.y
					case b.x == nil:
						m.x, m.y = a.x, a.y
					case a.y == nil && b.y == nil:
						m.x, m.y = a.x, b.x
					default:
						return nil, false
					}
					out = append(out, m)
				}
			}
			return out, true
		case expr.OpDiv:
			if t.Right.Degree() != 0 {
				return nil, false
			}
			d := t.Right.Eval(nil)
			if d == 0 {
				return nil, false
			}
			return expandQuadratic(t.Left, scale/d, out)
		}
	}
	return nil, false
}
