package sampler

import (
	"math"
	"testing"
	"testing/quick"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/prng"
)

// TestExactVsSampledConfAgree cross-validates the two integration paths:
// for random single-variable interval clauses, the exact CDF result and the
// pure-sampling result (exact path disabled) must agree within sampling
// tolerance.
func TestExactVsSampledConfAgree(t *testing.T) {
	exactCfg := DefaultConfig()
	exactCfg.WorldSeed = 1
	exact := New(exactCfg)

	sampledCfg := DefaultConfig()
	sampledCfg.WorldSeed = 2
	sampledCfg.DisableExactCDF = true
	sampledCfg.FixedSamples = 8000
	sampled := New(sampledCfg)

	id := uint64(1000)
	f := func(mu, sigmaRaw, aRaw, widthRaw float64) bool {
		if anyBadFloat(mu, sigmaRaw, aRaw, widthRaw) {
			return true
		}
		sigma := math.Abs(sigmaRaw)
		if sigma < 0.1 || sigma > 100 || math.Abs(mu) > 100 {
			return true
		}
		// Interval [a, a+width] positioned near the distribution mass.
		a := mu + math.Mod(aRaw, 3)*sigma
		width := (0.2 + math.Abs(math.Mod(widthRaw, 3))) * sigma
		id++
		y := &expr.Variable{
			Key:  expr.VarKey{ID: id},
			Dist: dist.MustInstance(dist.Normal{}, mu, sigma),
		}
		c := cond.Clause{
			cond.NewAtom(expr.NewVar(y), cond.GE, expr.Const(a)),
			cond.NewAtom(expr.NewVar(y), cond.LE, expr.Const(a+width)),
		}
		pe := exact.Conf(c)
		ps := sampled.Conf(c)
		if !pe.Exact {
			return false
		}
		// Sampled result is CDF-restricted, so its only error is the
		// massFraction-scaled acceptance noise.
		tol := 4*math.Sqrt(pe.Prob*(1-pe.Prob)/8000) + 1e-3
		return math.Abs(pe.Prob-ps.Prob) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundsNeverExcludeSatisfyingPoint: Algorithm 3.2's bounds maps are
// sound — a point known to satisfy the clause always lies within every
// propagated interval.
func TestBoundsNeverExcludeSatisfyingPoint(t *testing.T) {
	id := uint64(5000)
	f := func(vx, vy, m1, m2, m3 float64) bool {
		if anyBadFloat(vx, vy, m1, m2, m3) {
			return true
		}
		if math.Abs(vx) > 1e4 || math.Abs(vy) > 1e4 {
			return true
		}
		id += 2
		x := &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
		y := &expr.Variable{Key: expr.VarKey{ID: id + 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
		// Atoms constructed to be satisfied by (vx, vy).
		c := cond.Clause{
			cond.NewAtom(expr.NewVar(x), cond.LE, expr.Const(vx+math.Abs(m1))),
			cond.NewAtom(expr.NewVar(x), cond.GE, expr.Const(vx-1)),
			cond.NewAtom(
				expr.Add(expr.NewVar(x), expr.Mul(expr.Const(2), expr.NewVar(y))),
				cond.LE, expr.Const(vx+2*vy+math.Abs(m2))),
			cond.NewAtom(expr.NewVar(y), cond.GE, expr.Const(vy-math.Abs(m3))),
		}
		res := cond.CheckConsistency(c)
		if res.Verdict == cond.Inconsistent {
			return false
		}
		return res.Bounds.Get(x.Key).Contains(vx) && res.Bounds.Get(y.Key).Contains(vy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConfMatchesHoldsFrequency: for random two-variable clauses (beyond
// the exact paths, which are disabled), the sampled probability matches the
// brute-force frequency with which independent world draws satisfy the
// clause.
func TestConfMatchesHoldsFrequency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 9
	cfg.FixedSamples = 6000
	cfg.DisableClosedForm = true
	s := New(cfg)

	id := uint64(9000)
	f := func(shift float64) bool {
		if anyBadFloat(shift) {
			return true
		}
		d := math.Mod(shift, 2)
		id += 2
		x := &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
		y := &expr.Variable{Key: expr.VarKey{ID: id + 1}, Dist: dist.MustInstance(dist.Normal{}, d, 1)}
		c := cond.Clause{cond.NewAtom(expr.NewVar(x), cond.GT, expr.NewVar(y))}
		got := s.Conf(c).Prob
		// Analytic: P[X > Y] = Phi(-d / sqrt(2)).
		want := 0.5 * math.Erfc(d/2)
		return math.Abs(got-want) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMetropolisViable checks which groups the escalation logic can walk:
// newMetroState builds a chain only when every variable has a univariate
// PDF (Algorithm 4.3 line 20).
func TestMetropolisViable(t *testing.T) {
	cfg := DefaultConfig()
	chain := func(v *expr.Variable) *metroState {
		c := cond.Clause{cond.NewAtom(expr.NewVar(v), cond.GT, expr.Const(0))}
		gs, err := newGroupSampler(cond.Partition(c, nil)[0], &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newMetroState(gs, 0)
	}
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	if chain(x) == nil {
		t.Fatal("normal variable should support Metropolis")
	}
	// A class without a PDF (only Generate) is not viable.
	noPDF := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.Instance{Class: generateOnly{}, Params: nil}}
	if chain(noPDF) != nil {
		t.Fatal("PDF-less class reported viable")
	}
	// Neither is a multivariate component: its joint density is not exposed.
	l, err := dist.CholeskyFromCovariance([][]float64{{1, 0.5}, {0.5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mv := &expr.Variable{Key: expr.VarKey{ID: 3}, Dist: dist.MustInstance(dist.MVNormal{}, dist.MVNormalParams([]float64{0, 1}, l)...)}
	if chain(mv) != nil {
		t.Fatal("multivariate component reported viable")
	}
}

// generateOnly is a minimal distribution class exposing only Generate,
// exercising the degraded paths for black-box VG-function-style classes.
type generateOnly struct{}

func (generateOnly) Name() string                { return "GenerateOnly" }
func (generateOnly) CheckParams([]float64) error { return nil }
func (generateOnly) Generate(_ []float64, r *prng.Rand) float64 {
	return r.Float64()
}

func anyBadFloat(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
