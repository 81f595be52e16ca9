package sampler

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

// Differential test of the closed forms (closedform.go) against the sampled
// path they replace. Each case draws a random linear form S over one to four
// jointly Gaussian variables — independent Normals, components of a
// correlated MVNormal, or both — and bounds it with one or two atoms written
// in varied shapes: negative and cancelling coefficients, every inequality,
// scaled and side-swapped atoms, and tails down to P ≈ 1e-9. The truth is
// computed here from the explicit covariance matrix; the exact answers must
// match it to rounding, and the sampled path (DisableClosedForm, a fixed
// 20 000 samples) must land within four standard errors of it.

const cfSamples = 20000

type cfCase struct {
	name   string
	mean   []float64
	cov    [][]float64
	clause cond.Clause
	s      []float64 // coefficients of S, by variable index
	lo, hi float64
	t      []float64 // coefficients of the target T
	t0     float64
	target expr.Expr
}

// cfBuilder hands out fresh variable ids.
type cfBuilder struct {
	rng    *rand.Rand
	nextID uint64
}

// vars draws n Gaussian variables: independent Normals, the components of
// one MVNormal with a random Cholesky factor, or an MVNormal of n-1
// components plus one independent Normal. Variable i is row/column i of
// the returned mean and covariance.
func (b *cfBuilder) vars(n int) ([]*expr.Variable, []float64, [][]float64) {
	mean := make([]float64, n)
	cov := make([][]float64, n)
	for i := range cov {
		cov[i] = make([]float64, n)
		mean[i] = b.rng.Float64()*20 - 10
	}
	out := make([]*expr.Variable, n)
	mvDim := 0
	switch b.rng.IntN(3) {
	case 1:
		mvDim = n
	case 2:
		mvDim = n - 1
	}
	if mvDim >= 2 {
		chol := make([][]float64, mvDim)
		for i := range chol {
			chol[i] = make([]float64, mvDim)
			for j := 0; j < i; j++ {
				chol[i][j] = b.rng.Float64()*2 - 1
			}
			chol[i][i] = 0.5 + b.rng.Float64()*1.5
		}
		params := dist.MVNormalParams(mean[:mvDim], chol)
		b.nextID++
		for i := 0; i < mvDim; i++ {
			out[i] = &expr.Variable{Key: expr.VarKey{ID: b.nextID, Subscript: i}, Dist: dist.MustInstance(dist.MVNormal{}, params...)}
			for j := 0; j < mvDim; j++ {
				for k := 0; k <= min(i, j); k++ {
					cov[i][j] += chol[i][k] * chol[j][k]
				}
			}
		}
	} else {
		mvDim = 0
	}
	for i := mvDim; i < n; i++ {
		sd := 0.3 + b.rng.Float64()*3
		b.nextID++
		out[i] = &expr.Variable{Key: expr.VarKey{ID: b.nextID}, Dist: dist.MustInstance(dist.Normal{}, mean[i], sd)}
		cov[i][i] = sd * sd
	}
	return out, mean, cov
}

// coeffs draws nonzero coefficients of either sign.
func (b *cfBuilder) coeffs(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = (0.2 + b.rng.Float64()*2.8) * float64(1-2*b.rng.IntN(2))
	}
	return c
}

// linear renders c0 + Σ cᵢXᵢ, sometimes with a term that cancels: + k·Xⱼ
// and − k·Xⱼ both appear in the tree and the linear form drops them.
func (b *cfBuilder) linear(vars []*expr.Variable, c []float64, c0 float64) expr.Expr {
	var e expr.Expr = expr.Const(c0)
	for i, v := range vars {
		if c[i] != 0 {
			e = expr.Add(e, expr.Mul(expr.Const(c[i]), expr.NewVar(v)))
		}
	}
	if b.rng.IntN(3) == 0 {
		x := expr.NewVar(vars[b.rng.IntN(len(vars))])
		k := expr.Const(1 + b.rng.Float64())
		e = expr.Sub(expr.Add(e, expr.Mul(k, x)), expr.Mul(x, k))
	}
	return e
}

// bound renders S (op) t in a random but equivalent shape: scaled by r
// (flipping op when r < 0), or with the sides swapped.
func (b *cfBuilder) bound(s expr.Expr, op cond.CmpOp, t float64) cond.Atom {
	switch b.rng.IntN(3) {
	case 0:
		return cond.NewAtom(s, op, expr.Const(t))
	case 1:
		r := (0.5 + b.rng.Float64()*3) * float64(1-2*b.rng.IntN(2))
		if r < 0 {
			op = flipForNegation(op)
		}
		return cond.NewAtom(expr.Mul(expr.Const(r), s), op, expr.Const(r*t))
	default:
		return cond.NewAtom(expr.Const(t), flipForNegation(op), s)
	}
}

func (b *cfBuilder) pick(ops ...cond.CmpOp) cond.CmpOp { return ops[b.rng.IntN(len(ops))] }

// tailProbs are the one-sided target probabilities the cases cycle through.
var tailProbs = []float64{0.5, 0.3, 0.1, 0.05, 1e-3, 1e-5, 1e-7, 1e-9}

func closedFormCases(t *testing.T, n int) []cfCase {
	t.Helper()
	b := &cfBuilder{rng: rand.New(rand.NewPCG(26, 1)), nextID: 50000}
	std := []float64{0, 1}
	var out []cfCase
	for i := 0; i < n; i++ {
		nv := 1 + b.rng.IntN(4)
		vars, mean, cov := b.vars(nv)
		c := cfCase{mean: mean, cov: cov, lo: math.Inf(-1), hi: math.Inf(1)}
		c.s = b.coeffs(nv)
		sMean, sSD := c.moments(c.s)
		sExpr := b.linear(vars, c.s, 0)
		kind := i % 3
		p := tailProbs[(i/3)%len(tailProbs)]
		z := dist.Normal{}.InvCDF(std, p) // Φ⁻¹(p) < 0 for small p
		switch kind {
		case 0: // S > t with P = p
			c.lo = sMean - sSD*z
			c.clause = cond.Clause{b.bound(sExpr, b.pick(cond.GT, cond.GE), c.lo)}
		case 1: // S < t with P = p
			c.hi = sMean + sSD*z
			c.clause = cond.Clause{b.bound(sExpr, b.pick(cond.LT, cond.LE), c.hi)}
		default: // lo < S < hi from two atoms, shifted into the tail for small p
			a := b.rng.Float64()*3 - 2
			if p < 0.01 {
				a = -z
			}
			c.lo, c.hi = sMean+sSD*a, sMean+sSD*(a+0.2+b.rng.Float64()*2)
			c.clause = cond.Clause{
				b.bound(sExpr, b.pick(cond.GT, cond.GE), c.lo),
				b.bound(sExpr, b.pick(cond.LT, cond.LE), c.hi),
			}
			if b.rng.IntN(2) == 0 {
				c.clause[0], c.clause[1] = c.clause[1], c.clause[0]
			}
		}
		// The target: a random linear form over the same variables, its
		// own coefficients possibly zero (a variable of the group that T
		// does not mention).
		c.t = b.coeffs(nv)
		if nv > 1 && b.rng.IntN(3) == 0 {
			c.t[b.rng.IntN(nv)] = 0
		}
		c.t0 = b.rng.Float64()*4 - 2
		c.target = b.linear(vars, c.t, c.t0)
		c.name = fmt.Sprintf("case%02d-vars%d-kind%d-p%.0e", i, nv, kind, c.prob())
		out = append(out, c)
	}
	return out
}

// moments returns the mean and standard deviation of Σ aᵢXᵢ.
func (c cfCase) moments(a []float64) (float64, float64) {
	m, v := 0.0, 0.0
	for i := range a {
		m += a[i] * c.mean[i]
		for j := range a {
			v += a[i] * a[j] * c.cov[i][j]
		}
	}
	return m, math.Sqrt(v)
}

// prob is the truth P[lo < S < hi], from whichever tail keeps precision.
func (c cfCase) prob() float64 {
	m, sd := c.moments(c.s)
	a, b := (c.lo-m)/sd, (c.hi-m)/sd
	if a > -b {
		return 0.5*math.Erfc(a/math.Sqrt2) - 0.5*math.Erfc(b/math.Sqrt2)
	}
	return 0.5*math.Erfc(-b/math.Sqrt2) - 0.5*math.Erfc(-a/math.Sqrt2)
}

// condMean is the truth E[T | lo < S < hi]: T − μ_T − β(S − μ_S) is
// independent of S for β = Cov(T,S)/σ_S², and a truncated standard normal
// has mean (φ(α) − φ(β))/P.
func (c cfCase) condMean() float64 {
	sm, ssd := c.moments(c.s)
	tm, _ := c.moments(c.t)
	cov := 0.0
	for i := range c.t {
		for j := range c.s {
			cov += c.t[i] * c.s[j] * c.cov[i][j]
		}
	}
	a, b := (c.lo-sm)/ssd, (c.hi-sm)/ssd
	pdf := func(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
	return c.t0 + tm + cov/ssd*(pdf(a)-pdf(b))/c.prob()
}

func closeRel(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Max(math.Abs(want), 1e-300)
}

func TestClosedformLinearGaussianDifferential(t *testing.T) {
	exactCfg := DefaultConfig()
	exactCfg.WorldSeed = 261
	sampledCfg := exactCfg
	sampledCfg.DisableClosedForm = true
	sampledCfg.FixedSamples = cfSamples
	exact, sampled := New(exactCfg), New(sampledCfg)

	cases := closedFormCases(t, 60)
	means := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.prob()
			r := exact.Conf(c.clause)
			if !r.Exact || r.N != 0 {
				t.Fatalf("conf sampled (exact=%v n=%d)", r.Exact, r.N)
			}
			if !closeRel(r.Prob, p, 1e-9) {
				t.Fatalf("exact P = %.17g, truth %.17g", r.Prob, p)
			}
			rs := sampled.Conf(c.clause)
			if se := math.Sqrt(p * (1 - p) / cfSamples); math.Abs(rs.Prob-p) > 4*se+1e-12 {
				t.Fatalf("sampled P = %g, exact %g: %.1f standard errors apart", rs.Prob, p, math.Abs(rs.Prob-p)/se)
			}

			want := c.condMean()
			re := exact.Expectation(c.target, c.clause, true)
			if !re.Exact || re.N != 0 {
				t.Fatalf("expectation sampled (exact=%v n=%d)", re.Exact, re.N)
			}
			_, tsd := c.moments(c.t)
			if math.Abs(re.Mean-want) > 1e-9*(math.Abs(want)+tsd) || !closeRel(re.Prob, p, 1e-9) {
				t.Fatalf("exact E[T|S] = %.17g P = %g, truth %.17g P = %g", re.Mean, re.Prob, want, p)
			}
			// Rejection sampling costs 1/P draws a sample: compare the
			// sampled mean where that is affordable.
			if p < 0.05 {
				return
			}
			means++
			rm := sampled.Expectation(c.target, c.clause, false)
			if rm.Exact || rm.N != cfSamples {
				t.Fatalf("sampled path did not sample: %+v", rm)
			}
			if math.Abs(rm.Mean-want) > 4*rm.StdErr {
				t.Fatalf("sampled E[T|S] = %g ± %g, exact %g: %.1f standard errors apart",
					rm.Mean, rm.StdErr, want, math.Abs(rm.Mean-want)/rm.StdErr)
			}
		})
	}
	if means < 20 {
		t.Fatalf("only %d cases compared sampled means; want at least 20", means)
	}
}

// TestClosedformRareEventsAreExact: where sampling reports a rare conf() as
// exactly 0, the closed form gives the tail its true size.
func TestClosedformRareEventsAreExact(t *testing.T) {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	c := cond.Clause{cond.NewAtom(expr.Add(expr.NewVar(x), expr.NewVar(y)), cond.GT, expr.Const(7))}
	want := 0.5 * math.Erfc(7/math.Sqrt2/math.Sqrt2) // Y1+Y2 ~ N(0, 2)
	r := New(DefaultConfig()).Conf(c)
	if !r.Exact || !closeRel(r.Prob, want, 1e-12) {
		t.Fatalf("P[Y1+Y2 > 7] = %g exact=%v, want %g", r.Prob, r.Exact, want)
	}
}

// TestClosedformDeclines pins the shapes that keep sampling: two distinct
// linear forms, a non-Gaussian variable, an equality, a nonlinear target,
// a target spread over two groups, and the DisableClosedForm switch.
func TestClosedformDeclines(t *testing.T) {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 1, 2)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, -1, 1)}
	z := &expr.Variable{Key: expr.VarKey{ID: 3}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	g := &expr.Variable{Key: expr.VarKey{ID: 4}, Dist: dist.MustInstance(dist.Gamma{}, 2, 1)}
	X, Y, Z, G := expr.NewVar(x), expr.NewVar(y), expr.NewVar(z), expr.NewVar(g)
	sum := expr.Add(X, Y)
	cases := []struct {
		name   string
		target expr.Expr
		c      cond.Clause
		conf   bool // whether conf() is still exact
	}{
		{"two-forms", X, cond.Clause{cond.NewAtom(sum, cond.GT, expr.Const(0)), cond.NewAtom(expr.Sub(X, Y), cond.LT, expr.Const(3))}, false},
		{"gamma", X, cond.Clause{cond.NewAtom(expr.Add(X, G), cond.GT, expr.Const(2))}, false},
		{"equality", X, cond.Clause{cond.NewAtom(sum, cond.GT, expr.Const(0)), cond.NewAtom(sum, cond.EQ, expr.Const(1))}, false},
		{"nonlinear-target", expr.Mul(X, Y), cond.Clause{cond.NewAtom(sum, cond.GT, expr.Const(0))}, true},
		{"target-over-two-groups", expr.Add(X, Z), cond.Clause{cond.NewAtom(sum, cond.GT, expr.Const(0))}, true},
	}
	cfg := DefaultConfig()
	cfg.FixedSamples = 200
	s := New(cfg)
	for _, tc := range cases {
		// An equality on a continuous S holds with probability zero, so
		// only its conf() is cheap to sample.
		if tc.name == "equality" {
			if r := s.Conf(tc.c); r.Exact {
				t.Errorf("equality: conf answered exactly: %+v", r)
			}
			continue
		}
		if r := s.Expectation(tc.target, tc.c, true); r.Exact {
			t.Errorf("%s: expectation answered exactly: %+v", tc.name, r)
		}
		if r := s.Conf(tc.c); r.Exact != tc.conf {
			t.Errorf("%s: conf exact=%v, want %v", tc.name, r.Exact, tc.conf)
		}
	}
	cfg.DisableClosedForm = true
	off := New(cfg)
	c := cond.Clause{cond.NewAtom(sum, cond.GT, expr.Const(0))}
	if off.Conf(c).Exact || off.Expectation(X, c, true).Exact || off.Expectation(expr.Mul(X, X), nil, false).Exact {
		t.Error("DisableClosedForm left a closed form on")
	}
}

// TestClosedformSecondMoments: unconstrained targets of degree two equal
// their textbook truths, E[X²] = Var + μ², E[XY] = μₓμᵧ for independent
// variables and Σᵢⱼ + μᵢμⱼ for MVNormal components.
func TestClosedformSecondMoments(t *testing.T) {
	nv := func(id uint64, class dist.Class, params ...float64) expr.Expr {
		return expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(class, params...)})
	}
	const lambda, price = 3.7, 112.5
	m := nv(1, dist.Poisson{}, lambda)
	g := nv(2, dist.Gamma{}, 2.5, 0.5) // mean 5, variance 10
	n := nv(3, dist.Normal{}, -1.5, 2) // mean -1.5, variance 4
	chol, err := dist.CholeskyFromCovariance([][]float64{{4, 1.2}, {1.2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mvp := dist.MVNormalParams([]float64{1, -2}, chol)
	mv := func(sub int) expr.Expr {
		return expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: 4, Subscript: sub}, Dist: dist.MustInstance(dist.MVNormal{}, mvp...)})
	}
	cases := []struct {
		name  string
		e     expr.Expr
		truth float64
	}{
		{"poisson-nonlinear-sum", expr.Add(expr.Mul(m, m), expr.Mul(m, expr.Const(price))), lambda + lambda*lambda + lambda*price},
		{"gamma-square", expr.Mul(g, g), 10 + 25},
		{"normal-square-scaled", expr.Div(expr.Mul(expr.Const(3), expr.Mul(n, n)), expr.Const(2)), 1.5 * (4 + 2.25)},
		{"independent-product", expr.Sub(expr.Mul(m, g), expr.Mul(n, g)), lambda*5 + 1.5*5},
		{"expanded-binomial", expr.Mul(expr.Add(n, expr.Const(1)), expr.Sub(n, expr.Const(2))), (4 + 2.25) - (-1.5) - 2},
		{"negated-square", expr.Negate(expr.Mul(expr.Add(m, n), expr.Add(m, n))), -((lambda + lambda*lambda) + 2*lambda*-1.5 + (4 + 2.25))},
		{"mvnormal-cross", expr.Mul(mv(0), mv(1)), 1.2 + 1*-2},
		{"mvnormal-square", expr.Mul(mv(1), mv(1)), 2 + 4},
	}
	s := New(DefaultConfig())
	for _, c := range cases {
		r := s.Expectation(c.e, nil, true)
		if !r.Exact || r.N != 0 || !closeRel(r.Mean, c.truth, 1e-12) {
			t.Errorf("%s: E = %.17g exact=%v n=%d, want %.17g", c.name, r.Mean, r.Exact, r.N, c.truth)
		}
	}
	// The atom-free site: the target's variables are unconstrained while
	// another group carries the condition, which only scales P.
	u := nv(5, dist.Uniform{}, 0, 1)
	r := s.Expectation(cases[0].e, cond.Clause{cond.NewAtom(u, cond.GT, expr.Const(0.25))}, true)
	if !r.Exact || !closeRel(r.Mean, cases[0].truth, 1e-12) || !closeRel(r.Prob, 0.75, 1e-12) {
		t.Errorf("atom-free site: %+v, want mean %g prob 0.75", r, cases[0].truth)
	}
	// Degree three is beyond the closed form.
	if r := s.Expectation(expr.Mul(m, expr.Mul(m, m)), nil, false); r.Exact {
		t.Errorf("cubic target answered exactly: %+v", r)
	}
	if mr := s.Moment(n, nil, 2); !mr.Exact || mr.Moment != 4+2.25 {
		t.Errorf("Moment(N, 2) = %+v, want exact 6.25", mr)
	}
}

// TestClosedFormMeanLinearAllocs holds the per-row closed-form mean of a
// three-variable linear form — the term Expectation computes for each
// row of an unconstrained expected_sum — to the one allocation of its
// pre-sized linear form.
func TestClosedFormMeanLinearAllocs(t *testing.T) {
	nv := func(id uint64, class dist.Class, params ...float64) expr.Expr {
		return expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(class, params...)})
	}
	e := expr.Add(expr.Add(expr.Mul(expr.Const(2), nv(1, dist.Normal{}, 1, 1)), nv(2, dist.Poisson{}, 3)),
		expr.Sub(nv(3, dist.Uniform{}, 0, 4), expr.Const(5)))
	if m, ok := closedFormMean(e); !ok || m != 2+3+2-5 {
		t.Fatalf("closedFormMean = %v, %v; want 2, true", m, ok)
	}
	if got := testing.AllocsPerRun(100, func() { closedFormMean(e) }); got > 1 {
		t.Errorf("%v allocations per call, want at most 1", got)
	}
}
