package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/ctable"
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
//     components: Σᵢⱼ + μᵢμⱼ);
//   - the spread of a group of certain rows whose cells are linear in
//     Gaussian variables: the cells form a Gaussian vector Y ~ N(m, Σ), and
//     n·S² = YᵀCY (C = I − 11ᵀ/n) is a Gaussian quadratic form, so E[S²]
//     is a trace and E[S] one smooth 1-D integral (Imhof 1961).

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

// gaussCov returns Cov(a, b) of two Gaussian variables with one id (see
// gaussMean); variables with distinct ids are drawn independently.
// Components of one MVNormal covary through its Cholesky factor, Σ = L·Lᵀ.
func gaussCov(a, b *expr.Variable) float64 {
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

// gaussLower is the one Gaussian lowering of the closed forms: for k linear
// forms of jointly Gaussian variables it writes each form's mean (its
// Constant plus Σ c·μ) into m[:k] and their k×k covariance, row-major,
// into cov[:k*k]. Terms are added in (key, form) order and pair up only
// within one variable id, since only those covary, so both are pure
// functions of the forms. It reports false when a variable is not Gaussian.
func gaussLower(forms []expr.LinearForm, m, cov []float64) bool {
	type term struct {
		key  expr.VarKey
		form int
		c    float64
		v    *expr.Variable
	}
	terms := make([]term, 0, 8)
	for f, lf := range forms {
		m[f] = lf.Constant
		for _, t := range lf.Terms {
			terms = append(terms, term{key: t.Key, form: f, c: t.C, v: t.V})
		}
	}
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0; j-- {
			a, b := terms[j-1], terms[j]
			if a.key.Less(b.key) || a.key == b.key && a.form < b.form {
				break
			}
			terms[j-1], terms[j] = b, a
		}
	}
	k := len(forms)
	clear(cov[:k*k])
	for lo := 0; lo < len(terms); {
		hi := lo + 1
		for hi < len(terms) && terms[hi].key.ID == terms[lo].key.ID {
			hi++
		}
		for _, x := range terms[lo:hi] {
			mu, ok := gaussMean(x.v)
			if !ok {
				return false
			}
			m[x.form] += x.c * mu
			for _, y := range terms[lo:hi] {
				cov[x.form*k+y.form] += x.c * y.c * gaussCov(x.v, y.v)
			}
		}
		lo = hi
	}
	return true
}

// linearGaussian is a constraint group reduced to one open interval
// lo < S < hi on a linear form S = Σ aₖXₖ of jointly Gaussian variables.
type linearGaussian struct {
	s        expr.LinearForm // S, with Constant 0
	mean, sd float64         // of S
	lo, hi   float64
}

// asLinearGaussian reports whether the atoms qualify for the linear-Gaussian
// closed forms: reduceAtoms bounds one form S by them, and every variable of
// S is Gaussian. Strictness carries no mass for a continuous S, and a <>
// atom excludes a single point; an = atom pins S to a point and is left to
// the general path.
func asLinearGaussian(atoms cond.Clause) (linearGaussian, bool) {
	s, iv, ok := reduceAtoms(atoms, expr.LinearForm{})
	if !ok || iv.pinned {
		return linearGaussian{}, false
	}
	s.Constant = 0
	var m, v [1]float64
	if !gaussLower([]expr.LinearForm{s}, m[:], v[:]) {
		return linearGaussian{}, false
	}
	lg := linearGaussian{s: s, mean: m[0], sd: math.Sqrt(v[0]), lo: iv.lo, hi: iv.hi}
	if !(lg.sd > 0) || math.IsInf(lg.sd, 0) {
		return linearGaussian{}, false
	}
	return lg, true
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
	var m, cov [4]float64
	if !gaussLower([]expr.LinearForm{t, lg.s}, m[:], cov[:]) {
		return 0, false
	}
	alpha, beta := lg.bounds()
	return m[0] + cov[1]/lg.sd*(stdNormalPDF(alpha)-stdNormalPDF(beta))/p, true
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
	if !ok || len(t.Terms) == 0 {
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
	// Four slots, as Linearize sizes them, keep a small form from growing
	// its Terms slice.
	ms := MeanScratch{lf: expr.LinearForm{Terms: make([]expr.Term, 0, 4)}}
	return treeMean(expr.ExprTree{}, e, &ms)
}

// MeanScratch is the working memory of ClosedFormMean, reused from call to
// call so that a warm one allocates nothing.
type MeanScratch struct {
	lf    expr.LinearForm
	terms []monomial
}

// ClosedFormMean is closedFormMean over any equation view: E[root] when the
// equation is a polynomial of degree ≤ 2 whose variables have closed-form
// moments, with one closed-form hit counted on s. It reports false, and
// counts nothing, when closed forms are off or the equation does not
// qualify.
func ClosedFormMean[N any, T expr.Tree[N]](s *Sampler, t T, root N, ms *MeanScratch) (float64, bool) {
	if s.cfg.DisableClosedForm {
		return 0, false
	}
	m, ok := treeMean(t, root, ms)
	if ok {
		s.cfg.Stats.AddClosedFormHit()
	}
	return m, ok
}

// treeMean is the one closed-form mean walk: the linear normal form (in
// its key order) at degree ≤ 1, the monomial expansion (in expansion order)
// at degree 2, so the result is a pure function of the equation.
func treeMean[N any, T expr.Tree[N]](t T, root N, ms *MeanScratch) (float64, bool) {
	switch d := t.Degree(root); {
	case d == 0 || d == 1:
		if !expr.LinearizeTree(t, root, &ms.lf) {
			return 0, false
		}
		return linearMean(ms.lf)
	case d != 2:
		return 0, false
	}
	terms, ok := expandQuadratic(t, root, 1, ms.terms[:0])
	if !ok {
		return 0, false
	}
	ms.terms = terms
	mean := 0.0
	for _, mo := range terms {
		m := 1.0
		switch {
		case mo.y != nil:
			m, ok = productMean(mo.x, mo.y)
		case mo.x != nil:
			m, ok = varMean(mo.x)
		}
		if !ok {
			return 0, false
		}
		mean += mo.c * m
	}
	return mean, true
}

// linearMean returns E[c0 + Σ cᵢXᵢ], accumulated in the form's key order.
func linearMean(lf expr.LinearForm) (float64, bool) {
	mean := lf.Constant
	for _, t := range lf.Terms {
		m, ok := varMean(t.V)
		if !ok {
			return 0, false
		}
		mean += t.C * m
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

// expandQuadratic appends the monomials of scale·n to out, reporting false
// when n is not a polynomial of degree ≤ 2. A product expands both factors
// at the end of out, appends their pairwise products after them and moves
// those down over the factors, so the whole expansion lives in one slice.
func expandQuadratic[N any, T expr.Tree[N]](t T, n N, scale float64, out []monomial) ([]monomial, bool) {
	switch x := t.Node(n); x.Kind {
	case expr.NodeConst:
		return append(out, monomial{c: scale * x.C}), true
	case expr.NodeVar:
		return append(out, monomial{c: scale, x: x.V}), true
	case expr.NodeNeg:
		return expandQuadratic(t, x.L, -scale, out)
	case expr.NodeBin:
		switch x.Op {
		case expr.OpAdd, expr.OpSub:
			out, ok := expandQuadratic(t, x.L, scale, out)
			if !ok {
				return nil, false
			}
			if x.Op == expr.OpSub {
				scale = -scale
			}
			return expandQuadratic(t, x.R, scale, out)
		case expr.OpMul:
			if t.Degree(x.L) == 0 {
				return expandQuadratic(t, x.R, scale*t.Value(x.L), out)
			}
			if t.Degree(x.R) == 0 {
				return expandQuadratic(t, x.L, scale*t.Value(x.R), out)
			}
			base := len(out)
			out, ok := expandQuadratic(t, x.L, scale, out)
			if !ok {
				return nil, false
			}
			mid := len(out)
			if out, ok = expandQuadratic(t, x.R, 1, out); !ok {
				return nil, false
			}
			end := len(out)
			for i := base; i < mid; i++ {
				for j := mid; j < end; j++ {
					a, b := out[i], out[j]
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
			return out[:base+copy(out[base:], out[end:])], true
		case expr.OpDiv:
			if t.Degree(x.R) != 0 {
				return nil, false
			}
			d := t.Value(x.R)
			if d == 0 {
				return nil, false
			}
			return expandQuadratic(t, x.L, scale/d, out)
		}
	}
	return nil, false
}

// spreadCap is the largest group the spread closed form takes. Its cost
// grows as n³ (the Jacobi sweeps) against the n·1 000 cell evaluations of
// the world-sampled fallback. On one core of a shared 2-core Xeon,
// BenchmarkExpectedSpread has the two cross at n ≈ 80 (4.2–5.0 ms exact
// against 4.5–6.5 ms sampled; at n = 10, 0.07 ms against 0.76 ms), so a
// larger group samples.
const spreadCap = 80

// gaussianCells returns the mean vector m and the row-major covariance Σ
// of a group's target cells (gaussLower, one form per cell) when every row
// is certain and every cell is NULL, a number or linear in Gaussian
// variables; cells may share variables. A NULL cell's row is skipped, as
// SQL's aggregates skip NULL, so m holds one entry per other row.
func gaussianCells(tb *ctable.Table, col int) (m, cov []float64, ok bool) {
	forms := make([]expr.LinearForm, 0, tb.Len())
	for i := range tb.Tuples {
		t := &tb.Tuples[i]
		if !t.Cond.IsTrue() {
			return nil, nil, false
		}
		var f expr.LinearForm
		switch v := t.Values[col]; {
		case v.IsNull():
			continue
		case !v.IsSymbolic():
			f.Constant, ok = v.AsFloat()
		default:
			f, ok = expr.Linearize(v.E)
		}
		if !ok {
			return nil, nil, false
		}
		forms = append(forms, f)
	}
	n := len(forms)
	m, cov = make([]float64, n), make([]float64, n*n)
	if !gaussLower(forms, m, cov) {
		return nil, nil, false
	}
	return m, cov, true
}

// exactSpread answers the expected population variance (variance) or
// standard deviation of a group's cells, S² = (1/n)·Σ(Yᵢ − Ȳ)², when
// gaussianCells accepts the group and n ≤ spreadCap. With Y ~ N(m, Σ) and
// C = I − 11ᵀ/n, n·S² = Q = YᵀCY = |CY|², and CY ~ N(Cm, A), A = CΣC:
//
//   - E[S²] = (tr A + mᵀCm)/n;
//   - E[S] = E[√Q]/√n, where A = Σⱼ λⱼqⱼqⱼᵀ (cyclic Jacobi) splits Q into
//     κ + Σⱼ (√λⱼ Zⱼ + aⱼ)² with aⱼ = qⱼᵀCm over λⱼ > tol and κ = mᵀCm −
//     Σⱼ aⱼ², the part of Cm that no variable moves.
func exactSpread(tb *ctable.Table, col int, variance bool) (float64, bool) {
	if tb.Len() > spreadCap {
		return 0, false
	}
	m, cov, ok := gaussianCells(tb, col)
	if !ok {
		return 0, false
	}
	n := len(m) // the rows whose cell is not NULL
	if n < 2 {
		return 0, true
	}
	fn := float64(n)
	// b = Cm, by two passes; A = Σ − r1ᵀ − 1rᵀ + s11ᵀ with r the row means
	// of Σ and s their mean.
	mean := SumFold(m) / fn
	b := make([]float64, n)
	bb := 0.0
	for i, v := range m {
		b[i] = v - mean
		bb += b[i] * b[i]
	}
	r := make([]float64, n)
	s, trSigma := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r[i] += cov[i*n+j]
		}
		r[i] /= fn
		s += r[i]
		trSigma += cov[i*n+i]
	}
	s /= fn
	a := cov // A overwrites Σ
	trA := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] += s - r[i] - r[j]
		}
		trA += a[i*n+i]
	}
	eq := math.Max(trA, 0) + bb // E[Q]
	if math.IsNaN(eq) || math.IsInf(eq, 0) {
		return 0, false
	}
	if variance {
		return eq / fn, true
	}
	if !jacobiEigen(a, n, b) {
		return 0, false
	}
	// Eigenvalues at rounding level (the 1 direction, shared variables that
	// cancel under C) are directions no variable moves: their part of Cm
	// is deterministic and joins κ.
	tol := 1e-12 * trSigma
	var lambda, a2 []float64
	kappa := 0.0
	for j := 0; j < n; j++ {
		if l := a[j*n+j]; l > tol {
			lambda = append(lambda, l/eq)
			a2 = append(a2, b[j]*b[j]/eq)
		} else {
			kappa += b[j] * b[j]
		}
	}
	if len(lambda) == 0 {
		return math.Sqrt(kappa / fn), true
	}
	v := math.Sqrt(eq/fn) * sqrtMeanUnit(lambda, a2, kappa/eq)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	return v, true
}

// sqrtMeanUnit returns E[√Q] for Q = κ + Σⱼ (√λⱼ Zⱼ + aⱼ)² scaled to
// E[Q] = 1 (a2 holds aⱼ²). With the Laplace transform
// E[e^{−tQ}] = e^{L(t)}, L(t) = −tκ − Σⱼ [½·log1p(2tλⱼ) + t·aⱼ²/(1+2tλⱼ)],
// E[√Q] = (1/(2√π)) ∫₀^∞ (1 − e^{L(t)}) t^{−3/2} dt. The substitution
// t = e^{u+2}, u = 2·sinh(v) makes the integrand decay double-exponentially
// in both directions, and the trapezoid rule in v with h = 1/8 over
// |v| ≤ 4.5 (73 nodes) meets the χ and folded-normal truths to rounding.
// The shift puts the densest nodes at t = e², past the bend of 1 − e^{−t}:
// centred at t = 1 they left 1e-12 relative error on groups whose Q is
// concentrated (n = 96, or a mean difference 14σ apart).
func sqrtMeanUnit(lambda, a2 []float64, kappa float64) float64 {
	const h, nodes = 1.0 / 8, 36
	sum := 0.0
	for i := -nodes; i <= nodes; i++ {
		v := float64(i) * h
		t := math.Exp(2*math.Sinh(v) + 2)
		l := -t * kappa
		for j, lj := range lambda {
			d := 2 * t * lj
			l -= 0.5*math.Log1p(d) + t*a2[j]/(1+d)
		}
		// dt·t^{−3/2} = t^{−1/2}·2cosh(v)·dv.
		sum += -math.Expm1(l) * 2 * math.Cosh(v) / math.Sqrt(t)
	}
	return h * sum / (2 * math.SqrtPi)
}

// jacobiEigen diagonalises the symmetric n×n matrix a (row-major, read and
// kept in its upper triangle only) in place by cyclic Jacobi rotations,
// leaving the eigenvalues on its diagonal, and rotates b along with it, so b
// ends as Qᵀb in the eigenbasis Q. a is positive semidefinite, so its
// trace bounds every eigenvalue: an off-diagonal entry below 1e-17 of it is
// rounding, and is zeroed rather than rotated. It reports false if the
// sweeps fail to converge.
func jacobiEigen(a []float64, n int, b []float64) bool {
	// rot applies the rotation to the pair of entries at x and y.
	rot := func(c, s float64, x, y int) {
		g, h := a[x], a[y]
		a[x], a[y] = c*g-s*h, s*g+c*h
	}
	tiny := 0.0
	for i := 0; i < n; i++ {
		tiny += math.Abs(a[i*n+i])
	}
	tiny *= 1e-17
	for sweep := 0; sweep < 64; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) <= tiny {
					a[p*n+q] = 0
					continue
				}
				app, aqq := a[p*n+p], a[q*n+q]
				rotated = true
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Hypot(1, theta))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				a[p*n+p], a[q*n+q], a[p*n+q] = app-t*apq, aqq+t*apq, 0
				for k := 0; k < p; k++ {
					rot(c, s, k*n+p, k*n+q)
				}
				for k := p + 1; k < q; k++ {
					rot(c, s, p*n+k, k*n+q)
				}
				for k := q + 1; k < n; k++ {
					rot(c, s, p*n+k, q*n+k)
				}
				b[p], b[q] = c*b[p]-s*b[q], s*b[p]+c*b[q]
			}
		}
		if !rotated {
			return true
		}
	}
	return false
}
