package sampler_test

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/sampler"
)

// Calibration: the sampler's answers are judged against closed-form truths,
// not against recorded bits. Each sampled case below draws every value
// through prng.NormFloat64 (Normal, Lognormal, Gamma via Marsaglia–Tsang,
// MVNormal) and is run at calibrationSeeds fixed world seeds under the
// default adaptive goal, with the closed forms disabled so that it samples.
// The estimate must land within the relative-error bound Config.Delta of
// the truth in at least a (1 − Config.Epsilon) share of the runs, less a
// binomial slack of calibrationSlackSD standard deviations of the miss
// count. A change of draw algorithm that biased or narrowed the sampler's
// error fails here whatever bits it produces.
//
// The rare-event conf() cases run with the closed forms on, over
// rareEventSeeds seeds. Sampling answers a group this rare with exactly 0
// in most runs; each of these must be answered exactly, every time.

const (
	calibrationSeeds   = 200
	rareEventSeeds     = 1000
	calibrationSlackSD = 3
)

type calibrationCase struct {
	name  string
	truth float64
	// run returns the estimate of one run.
	run func(s *sampler.Sampler) sampler.Result
	// prob selects Result.Prob instead of Result.Mean.
	prob bool
	// exact marks a case the closed forms must answer without sampling.
	exact bool
}

func calibrationCases(t *testing.T) []calibrationCase {
	nv := func(id uint64, mu, sigma float64) expr.Expr { return expr.NewVar(gv(id, 0, dist.Normal{}, mu, sigma)) }
	// X ~ N(5, 1.5²), Y ~ N(4, 2²): X+Y ~ N(9, 2.5²).
	x, y := nv(1, 5, 1.5), nv(2, 4, 2)
	const confCut = 8.0
	mv := mvParams(t) // mean (1, −2, 0.5)
	mvc := func(sub int) expr.Expr { return expr.NewVar(gv(40, sub, dist.MVNormal{}, mv...)) }
	// rareCut returns the c with P(X+Y > c) = p, and that probability as
	// ½·erfc evaluates it.
	rareCut := func(p float64) (float64, float64) {
		c := 9 - 2.5*dist.Normal{}.InvCDF([]float64{0, 1}, p)
		return c, 0.5 * math.Erfc((c-9)/(2.5*math.Sqrt2))
	}
	cut3, p3 := rareCut(0.001)
	cut2, p2 := rareCut(0.01)
	cut1, p1 := rareCut(0.03)
	rare := []calibrationCase{
		{
			name: "conf-rare-0.001", truth: p3, prob: true, exact: true,
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Conf(cond.Clause{cond.NewAtom(expr.Add(x, y), cond.GT, expr.Const(cut3))})
			},
		},
		{
			// The same tail, written as −2X − 2Y < −2c.
			name: "conf-rare-0.01", truth: p2, prob: true, exact: true,
			run: func(s *sampler.Sampler) sampler.Result {
				lhs := expr.Sub(expr.Mul(expr.Const(-2), x), expr.Mul(y, expr.Const(2)))
				return s.Conf(cond.Clause{cond.NewAtom(lhs, cond.LT, expr.Const(-2*cut2))})
			},
		},
		{
			// An interval whose upper edge carries no mass to speak of.
			name: "conf-rare-0.03", truth: p1 - 0.5*math.Erfc(40/math.Sqrt2), prob: true, exact: true,
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Conf(cond.Clause{
					cond.NewAtom(expr.Add(x, y), cond.GE, expr.Const(cut1)),
					cond.NewAtom(expr.Add(y, x), cond.LE, expr.Const(9+2.5*40)),
				})
			},
		},
	}
	return append(rare, []calibrationCase{
		{
			// The benchmark's conf() truth: P(X+Y > c) = ½·erfc((c−μ)/(σ√2)).
			name:  "conf-normal-sum",
			truth: 0.5 * math.Erfc((confCut-9)/(2.5*math.Sqrt2)),
			prob:  true,
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Conf(cond.Clause{cond.NewAtom(expr.Add(x, y), cond.GT, expr.Const(confCut))})
			},
		},
		{
			name:  "expectation-normal-sum",
			truth: 9,
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Expectation(expr.Add(x, y), nil, false)
			},
		},
		{
			// E[Lognormal(μ, σ)] = exp(μ + σ²/2).
			name:  "expectation-lognormal",
			truth: math.Exp(1 + 0.5*0.5/2),
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Expectation(expr.NewVar(gv(3, 0, dist.Lognormal{}, 1, 0.5)), nil, false)
			},
		},
		{
			// E[Gamma(shape, rate)] = shape/rate; shape ≥ 1 takes
			// Marsaglia–Tsang's Normal-proposal path directly.
			name:  "expectation-gamma",
			truth: 2.5 / 0.5,
			run: func(s *sampler.Sampler) sampler.Result {
				return s.Expectation(expr.NewVar(gv(4, 0, dist.Gamma{}, 2.5, 0.5)), nil, false)
			},
		},
		{
			// E[2·X0 − X1 + X2] = 2·1 + 2 + 0.5 for the 3-dimensional joint.
			name:  "expectation-mvnormal-linear",
			truth: 4.5,
			run: func(s *sampler.Sampler) sampler.Result {
				e := expr.Add(expr.Sub(expr.Mul(expr.Const(2), mvc(0)), mvc(1)), mvc(2))
				return s.Expectation(e, nil, false)
			},
		},
	}...)
}

func TestCalibrationNormalDraws(t *testing.T) {
	base := sampler.DefaultConfig()
	for _, c := range calibrationCases(t) {
		t.Run(c.name, func(t *testing.T) {
			seeds := calibrationSeeds
			if c.exact {
				seeds = rareEventSeeds
			}
			n := float64(seeds)
			allowedMisses := int(n*base.Epsilon + calibrationSlackSD*math.Sqrt(n*base.Epsilon*(1-base.Epsilon)))
			misses := 0
			worst := 0.0
			for seed := uint64(1); seed <= uint64(seeds); seed++ {
				cfg := base
				cfg.WorldSeed = seed
				cfg.Workers = 1
				// Closed-form means would answer without drawing.
				cfg.DisableClosedForm = !c.exact
				r := c.run(sampler.New(cfg))
				if r.Err != nil {
					t.Fatalf("seed %d: %v", seed, r.Err)
				}
				if r.Exact != c.exact || (r.N == 0) != c.exact {
					t.Fatalf("seed %d: exact=%v n=%d; the case must %s", seed, r.Exact, r.N,
						map[bool]string{true: "answer exactly", false: "sample"}[c.exact])
				}
				est := r.Mean
				if c.prob {
					est = r.Prob
				}
				rel := math.Abs(est-c.truth) / math.Abs(c.truth)
				worst = math.Max(worst, rel)
				if !(rel <= base.Delta) {
					misses++
				}
			}
			t.Logf("truth %.6g: %d/%d runs outside relative error %.2g (allowed %d), worst %.3g",
				c.truth, misses, seeds, base.Delta, allowedMisses, worst)
			if misses > allowedMisses || (c.exact && worst > 1e-12) {
				t.Fatalf("%d of %d runs missed the truth %.6g by more than %.2g relative (allowed %d), worst %.3g",
					misses, seeds, c.truth, base.Delta, allowedMisses, worst)
			}
		})
	}
}
