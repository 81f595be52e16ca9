package sampler

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

var nextTestVar uint64 = 1

func mkVar(t *testing.T, class dist.Class, params ...float64) *expr.Variable {
	t.Helper()
	inst, err := dist.NewInstance(class, params...)
	if err != nil {
		t.Fatal(err)
	}
	nextTestVar++
	return &expr.Variable{Key: expr.VarKey{ID: nextTestVar}, Dist: inst}
}

func testSampler() *Sampler {
	cfg := DefaultConfig()
	cfg.WorldSeed = 12345
	return New(cfg)
}

func atom(l expr.Expr, op cond.CmpOp, r expr.Expr) cond.Atom { return cond.NewAtom(l, op, r) }

// soloSampler builds a group sampler to be drawn from on its own, with a
// scratch sized for it (the set-up a groupEngine does for its prototypes).
func soloSampler(t *testing.T, g cond.Group, cfg *Config) (*groupSampler, *scratch) {
	t.Helper()
	gs, err := newGroupSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gs.inconsistent {
		return gs, nil
	}
	return gs, newScratch(gs.fr.size(), gs.atoms.MaxStack())
}

// stdNormalPDF/CDF for analytic references.
func phi(x float64) float64 { return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi) }
func Phi(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func TestExpectationUnconstrainedExact(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 7, 2)
	r := s.Expectation(expr.NewVar(y), cond.TrueClause(), true)
	if !r.Exact {
		t.Fatal("unconstrained normal mean should be exact")
	}
	if r.Mean != 7 || r.Prob != 1 {
		t.Fatalf("mean %v prob %v", r.Mean, r.Prob)
	}
	// Linear combination is exact too.
	x := mkVar(t, dist.Exponential{}, 0.5)
	e := expr.Add(expr.Mul(expr.Const(3), expr.NewVar(y)), expr.NewVar(x))
	r = s.Expectation(e, cond.TrueClause(), false)
	if !r.Exact || math.Abs(r.Mean-23) > 1e-12 {
		t.Fatalf("3*Y+X: mean %v exact %v", r.Mean, r.Exact)
	}
}

func TestExpectationDeterministicExpression(t *testing.T) {
	s := testSampler()
	r := s.Expectation(expr.Const(42), cond.TrueClause(), true)
	if !r.Exact || r.Mean != 42 || r.Prob != 1 {
		t.Fatalf("%+v", r)
	}
}

func TestTruncatedNormalExpectation(t *testing.T) {
	// Example 4.1 shape: E[Y | a < Y < b] for Y ~ N(mu, sigma).
	// Analytic: mu + sigma * (phi(alpha) - phi(beta)) / (Phi(beta) - Phi(alpha)).
	// The closed form answers it exactly; with it disabled, CDF-inverted
	// sampling must land within tolerance.
	for _, closed := range []bool{true, false} {
		cfg := testSampler().Config()
		cfg.DisableClosedForm = !closed
		testTruncatedNormal(t, New(cfg), closed)
	}
}

func testTruncatedNormal(t *testing.T, s *Sampler, exact bool) {
	t.Helper()
	mu, sigma := 5.0, math.Sqrt(10)
	a, b := -3.0, 2.0
	y := mkVar(t, dist.Normal{}, mu, sigma)
	c := cond.Clause{
		atom(expr.NewVar(y), cond.GT, expr.Const(a)),
		atom(expr.NewVar(y), cond.LT, expr.Const(b)),
	}
	alpha, beta := (a-mu)/sigma, (b-mu)/sigma
	want := mu + sigma*(phi(alpha)-phi(beta))/(Phi(beta)-Phi(alpha))
	wantP := Phi(beta) - Phi(alpha)

	r := s.Expectation(expr.NewVar(y), c, true)
	if r.Exact != exact || (r.N == 0) != exact {
		t.Fatalf("exact=%v n=%d, want exact=%v", r.Exact, r.N, exact)
	}
	if math.Abs(r.Mean-want) > 0.15 {
		t.Fatalf("truncated mean %v, want %v (n=%d)", r.Mean, want, r.N)
	}
	if math.Abs(r.Prob-wantP) > 0.02*wantP+0.01 {
		t.Fatalf("prob %v, want %v", r.Prob, wantP)
	}
}

func TestExpectationUnsatisfiableIsNaN(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.NewVar(y), cond.GT, expr.Const(5)),
		atom(expr.NewVar(y), cond.LT, expr.Const(3)),
	}
	r := s.Expectation(expr.NewVar(y), c, true)
	if !math.IsNaN(r.Mean) || r.Prob != 0 {
		t.Fatalf("unsatisfiable: mean %v prob %v", r.Mean, r.Prob)
	}
}

func TestIndependenceSeparatesGroups(t *testing.T) {
	// E[X | Y > 2] with X independent of Y must equal E[X]; the Y group
	// contributes only probability.
	s := testSampler()
	x := mkVar(t, dist.Normal{}, 10, 1)
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(2))}
	r := s.Expectation(expr.NewVar(x), c, true)
	// The default config targets 5% relative error: +-0.5 at mean 10.
	if math.Abs(r.Mean-10) > 0.5 {
		t.Fatalf("mean %v, want 10 +- 0.5", r.Mean)
	}
	wantP := 1 - Phi(2)
	if math.Abs(r.Prob-wantP) > 0.005 {
		t.Fatalf("prob %v, want %v", r.Prob, wantP)
	}
}

func TestProbFactorsAcrossGroups(t *testing.T) {
	// P[X > 1 AND Y < 0] = P[X>1] * P[Y<0] for independent X, Y — and both
	// factors are single-variable intervals, so the result is exact.
	s := testSampler()
	x := mkVar(t, dist.Normal{}, 0, 1)
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.NewVar(x), cond.GT, expr.Const(1)),
		atom(expr.NewVar(y), cond.LT, expr.Const(0)),
	}
	r := s.Conf(c)
	want := (1 - Phi(1)) * 0.5
	if !r.Exact {
		t.Fatal("two independent intervals should integrate exactly")
	}
	if math.Abs(r.Prob-want) > 1e-9 {
		t.Fatalf("prob %v, want %v", r.Prob, want)
	}
}

func TestConfExactNormalInterval(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 5, 2)
	c := cond.Clause{
		atom(expr.NewVar(y), cond.GE, expr.Const(3)),
		atom(expr.NewVar(y), cond.LE, expr.Const(9)),
	}
	r := s.Conf(c)
	want := Phi((9.0-5)/2) - Phi((3.0-5)/2)
	if !r.Exact || math.Abs(r.Prob-want) > 1e-9 {
		t.Fatalf("prob %v (exact=%v), want %v", r.Prob, r.Exact, want)
	}
}

func TestConfExactLinearAtom(t *testing.T) {
	// 2*Y + 3 > 7 <=> Y > 2.
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.Add(expr.Mul(expr.Const(2), expr.NewVar(y)), expr.Const(3)), cond.GT, expr.Const(7)),
	}
	r := s.Conf(c)
	want := 1 - Phi(2)
	if !r.Exact || math.Abs(r.Prob-want) > 1e-9 {
		t.Fatalf("prob %v (exact=%v), want %v", r.Prob, r.Exact, want)
	}
	// Negative coefficient flips: -Y < -2 <=> Y > 2.
	c2 := cond.Clause{
		atom(expr.Negate(expr.NewVar(y)), cond.LT, expr.Const(-2)),
	}
	r2 := s.Conf(c2)
	if !r2.Exact || math.Abs(r2.Prob-want) > 1e-9 {
		t.Fatalf("flipped prob %v, want %v", r2.Prob, want)
	}
}

func TestConfExactPoissonStrictness(t *testing.T) {
	// For integer-valued X ~ Poisson(4): P[X > 2] != P[X >= 2].
	s := testSampler()
	x := mkVar(t, dist.Poisson{}, 4)
	inst := x.Dist

	gt := s.Conf(cond.Clause{atom(expr.NewVar(x), cond.GT, expr.Const(2))})
	ge := s.Conf(cond.Clause{atom(expr.NewVar(x), cond.GE, expr.Const(2))})
	cdf1, _ := inst.CDF(1)
	cdf2, _ := inst.CDF(2)
	if !gt.Exact || !ge.Exact {
		t.Fatal("Poisson intervals should be exact")
	}
	if math.Abs(gt.Prob-(1-cdf2)) > 1e-9 {
		t.Fatalf("P[X>2] = %v, want %v", gt.Prob, 1-cdf2)
	}
	if math.Abs(ge.Prob-(1-cdf1)) > 1e-9 {
		t.Fatalf("P[X>=2] = %v, want %v", ge.Prob, 1-cdf1)
	}
	if gt.Prob == ge.Prob {
		t.Fatal("strictness ignored for discrete variable")
	}
}

func TestConfDiscreteEquality(t *testing.T) {
	s := testSampler()
	x := mkVar(t, dist.Bernoulli{}, 0.3)
	r := s.Conf(cond.Clause{atom(expr.NewVar(x), cond.EQ, expr.Const(1))})
	if !r.Exact || math.Abs(r.Prob-0.3) > 1e-12 {
		t.Fatalf("P[B=1] = %v exact=%v", r.Prob, r.Exact)
	}
	// Continuous equality carries zero mass.
	y := mkVar(t, dist.Normal{}, 0, 1)
	r2 := s.Conf(cond.Clause{atom(expr.NewVar(y), cond.EQ, expr.Const(0))})
	if r2.Prob != 0 {
		t.Fatalf("P[Y=0] = %v, want 0", r2.Prob)
	}
}

func TestConfTwoVariableRejection(t *testing.T) {
	// P[X > Y] for iid N(0,1) is exactly 0.5; with the closed forms off it
	// requires joint sampling.
	cfg := testSampler().Config()
	cfg.DisableClosedForm = true
	s := New(cfg)
	x := mkVar(t, dist.Normal{}, 0, 1)
	y := mkVar(t, dist.Normal{}, 0, 1)
	r := s.Conf(cond.Clause{atom(expr.NewVar(x), cond.GT, expr.NewVar(y))})
	if r.Exact {
		t.Fatal("two-variable comparison cannot be exact")
	}
	if math.Abs(r.Prob-0.5) > 0.03 {
		t.Fatalf("P[X>Y] = %v", r.Prob)
	}
}

func TestConfTrueAndInconsistent(t *testing.T) {
	s := testSampler()
	if r := s.Conf(cond.TrueClause()); r.Prob != 1 || !r.Exact {
		t.Fatalf("TRUE: %+v", r)
	}
	y := mkVar(t, dist.Exponential{}, 1)
	r := s.Conf(cond.Clause{atom(expr.NewVar(y), cond.LT, expr.Const(-1))})
	if r.Prob != 0 || !r.Exact {
		t.Fatalf("exp < -1: %+v", r)
	}
}

func TestAConfInclusionExclusion(t *testing.T) {
	// P[X>1 OR Y>1] = p + p - p^2 for independent standard normals.
	s := testSampler()
	x := mkVar(t, dist.Normal{}, 0, 1)
	y := mkVar(t, dist.Normal{}, 0, 1)
	d := cond.FromClause(cond.Clause{atom(expr.NewVar(x), cond.GT, expr.Const(1))}).
		Or(cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))}))
	r := s.AConf(d)
	p := 1 - Phi(1)
	want := 2*p - p*p
	if !r.Exact {
		t.Fatal("interval union should be exact by inclusion-exclusion")
	}
	if math.Abs(r.Prob-want) > 1e-9 {
		t.Fatalf("prob %v, want %v", r.Prob, want)
	}
}

func TestAConfOverlappingClauses(t *testing.T) {
	// P[Y>0 OR Y>1] = P[Y>0] = 0.5 — overlapping clauses on one variable.
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	d := cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(0))}).
		Or(cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))}))
	r := s.AConf(d)
	if math.Abs(r.Prob-0.5) > 1e-9 {
		t.Fatalf("prob %v, want 0.5", r.Prob)
	}
}

func TestCDFInversionSelectiveQuery(t *testing.T) {
	// A highly selective single-variable constraint: P ~ 0.0013.
	// With CDF inversion the sampler never rejects, so a small fixed
	// budget still lands accurate conditional expectations.
	cfg := DefaultConfig()
	cfg.WorldSeed = 99
	cfg.FixedSamples = 200
	cfg.DisableClosedForm = true // the truncated-normal mean is exact otherwise
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(3))}
	r := s.Expectation(expr.NewVar(y), c, true)
	want := phi(3) / (1 - Phi(3)) // E[Y | Y>3] for standard normal
	if math.Abs(r.Mean-want) > 0.08 {
		t.Fatalf("tail mean %v, want %v", r.Mean, want)
	}
	if r.N != 200 {
		t.Fatalf("accepted %d samples, want 200 (CDF inversion should never reject)", r.N)
	}
	wantP := 1 - Phi(3)
	if math.Abs(r.Prob-wantP) > wantP*0.1 {
		t.Fatalf("prob %v, want %v", r.Prob, wantP)
	}
}

func TestCDFInversionAblation(t *testing.T) {
	// With CDF inversion disabled, the same query must burn many attempts.
	cfg := DefaultConfig()
	cfg.WorldSeed = 99
	cfg.FixedSamples = 50
	cfg.DisableCDFInversion = true
	cfg.DisableMetropolis = true
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(2.5))}

	// Build the group by hand to inspect counters.
	groups := cond.Partition(c, nil)
	gs, sc := soloSampler(t, groups[0], &s.cfg)
	for i := 0; i < 50; i++ {
		if !gs.drawInto(sc, uint64(i)) {
			t.Fatal("rejection sampling failed to find a sample")
		}
	}
	// P[Y > 2.5] ~ 0.0062: expect on the order of 100+ attempts/sample.
	if gs.attempts < 50*20 {
		t.Fatalf("rejection sampling suspiciously cheap: %d attempts", gs.attempts)
	}

	cfg2 := cfg
	cfg2.DisableCDFInversion = false
	gs2, sc2 := soloSampler(t, groups[0], &cfg2)
	for i := 0; i < 50; i++ {
		if !gs2.drawInto(sc2, uint64(i)) {
			t.Fatal("CDF sampling failed")
		}
	}
	if gs2.attempts != gs2.accepts {
		t.Fatalf("CDF inversion rejected: %d attempts for %d accepts", gs2.attempts, gs2.accepts)
	}
}

func TestMetropolisDeepTail(t *testing.T) {
	// Y1 + Y2 > 6 for iid N(0,1): acceptance ~ 1e-5, far beyond rejection's
	// reach; the sampler must escalate to Metropolis and still produce a
	// sensible conditional mean (E[Y1 | Y1+Y2>6] ~ 3 by symmetry).
	cfg := DefaultConfig()
	cfg.WorldSeed = 7
	cfg.FixedSamples = 400
	cfg.RejectionCap = 20000
	cfg.DisableClosedForm = true // Y1+Y2 > 6 is a linear-Gaussian group
	s := New(cfg)
	y1 := mkVar(t, dist.Normal{}, 0, 1)
	y2 := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.Add(expr.NewVar(y1), expr.NewVar(y2)), cond.GT, expr.Const(6)),
	}
	r := s.Expectation(expr.NewVar(y1), c, false)
	if !r.UsedMetropolis {
		t.Fatal("deep-tail constraint did not escalate to Metropolis")
	}
	if math.Abs(r.Mean-3) > 0.5 {
		t.Fatalf("E[Y1 | Y1+Y2>6] = %v, want ~3", r.Mean)
	}
	// The sum itself must respect the constraint.
	rs := s.Expectation(expr.Add(expr.NewVar(y1), expr.NewVar(y2)), c, false)
	if rs.Mean < 6 {
		t.Fatalf("E[Y1+Y2 | Y1+Y2>6] = %v < 6", rs.Mean)
	}
}

func TestMetropolisDisabledFallsBack(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 7
	cfg.FixedSamples = 5
	cfg.DisableMetropolis = true
	cfg.DisableClosedForm = true
	cfg.RejectionCap = 2000 // too small for the tail
	s := New(cfg)
	y1 := mkVar(t, dist.Normal{}, 0, 1)
	y2 := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.Add(expr.NewVar(y1), expr.NewVar(y2)), cond.GT, expr.Const(8)),
	}
	r := s.Expectation(expr.NewVar(y1), c, false)
	if !math.IsNaN(r.Mean) {
		t.Fatalf("expected NaN when sampling is hopeless, got %v", r.Mean)
	}
}

// TestAdaptiveStoppingRespectsBounds: every adaptive path ends inside
// [min(MinSamples, MaxSamples), MaxSamples] — MaxSamples caps MinSamples
// when it is the smaller of the two.
func TestAdaptiveStoppingRespectsBounds(t *testing.T) {
	for _, b := range []struct{ min, max int }{{25, 5000}, {30, 5}, {5000, 50}} {
		cfg := DefaultConfig()
		cfg.WorldSeed = 3
		cfg.MinSamples, cfg.MaxSamples = b.min, b.max
		cfg.DisableClosedForm = true
		s := New(cfg)
		// x − y > 0.5 over two Exponential(1) variables: one group that
		// rejection-samples, with no CDF to integrate it exactly.
		x := mkVar(t, dist.Exponential{}, 1)
		y := mkVar(t, dist.Exponential{}, 1)
		c := cond.Clause{atom(expr.Sub(expr.NewVar(x), expr.NewVar(y)), cond.GT, expr.Const(0.5))}
		gs, err := newGroupSampler(s.partition(c, nil)[0], &s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, _, confN, err := s.sampleGroupProb(gs)
		if err != nil {
			t.Fatal(err)
		}
		ex := s.Expectation(expr.NewVar(x), c, false)
		// E[x | x − y > 0.5] = E[y | ·] + 0.5 + 1 = 2 (y | · ~ Exponential(2)).
		if b.min <= b.max && math.Abs(ex.Mean-2) > 0.2 {
			t.Errorf("min %d max %d: E[x | x − y > 0.5] = %v, want 2", b.min, b.max, ex.Mean)
		}
		for _, r := range []struct {
			path string
			n    int
		}{
			{"Expectation", ex.N},
			{"sampleGroupProb", confN},
			{"worldSampleDNF", s.worldSampleDNF(expr.NewVar(x), cond.Condition{Clauses: []cond.Clause{c}}, true).N},
		} {
			if r.n < min(b.min, b.max) || r.n > b.max {
				t.Errorf("min %d max %d: %s drew %d samples", b.min, b.max, r.path, r.n)
			}
		}
	}
}

func TestFixedSamplesExactCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FixedSamples = 123
	cfg.DisableClosedForm = true // E[Y²] = Var + μ² otherwise
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 0, 1)
	r := s.Expectation(expr.Mul(expr.NewVar(y), expr.NewVar(y)), cond.TrueClause(), false)
	if r.N != 123 {
		t.Fatalf("N = %d, want 123", r.N)
	}
	// E[Y^2] = 1.
	if math.Abs(r.Mean-1) > 0.35 {
		t.Fatalf("E[Y^2] = %v", r.Mean)
	}
}

func TestIndependenceAblationStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 5
	cfg.DisableIndependence = true
	s := New(cfg)
	x := mkVar(t, dist.Normal{}, 10, 1)
	y := mkVar(t, dist.Uniform{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(0.5))}
	r := s.Expectation(expr.NewVar(x), c, true)
	// 5% relative-error target: +-0.5 at mean 10.
	if math.Abs(r.Mean-10) > 0.5 {
		t.Fatalf("merged-group mean %v", r.Mean)
	}
	if math.Abs(r.Prob-0.5) > 0.05 {
		t.Fatalf("merged-group prob %v", r.Prob)
	}
}

func TestExpectationDNFMultiClause(t *testing.T) {
	// E[Y | Y < -1 OR Y > 1] = 0 by symmetry; P = 2*(1-Phi(1)).
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	d := cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.LT, expr.Const(-1))}).
		Or(cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))}))
	r := s.ExpectationDNF(expr.NewVar(y), d, true)
	if math.Abs(r.Mean) > 0.2 {
		t.Fatalf("symmetric DNF mean %v", r.Mean)
	}
	want := 2 * (1 - Phi(1))
	if math.Abs(r.Prob-want) > 0.05 {
		t.Fatalf("DNF prob %v, want %v", r.Prob, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	mk := func() Result {
		cfg := DefaultConfig()
		cfg.WorldSeed = 777
		cfg.DisableClosedForm = true // determinism of the sampled answer
		s := New(cfg)
		y := &expr.Variable{Key: expr.VarKey{ID: 4242}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
		c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))}
		return s.Expectation(expr.NewVar(y), c, true)
	}
	a, b := mk(), mk()
	if a.Mean != b.Mean || a.Prob != b.Prob || a.N != b.N {
		t.Fatalf("non-deterministic results: %+v vs %+v", a, b)
	}
}
