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
// not against recorded bits. Each case below draws every value through
// prng.NormFloat64 (Normal, Lognormal, Gamma via Marsaglia–Tsang, MVNormal)
// and is run at calibrationSeeds fixed world seeds under the default
// adaptive goal. The estimate must land within the relative-error bound
// Config.Delta of the truth in at least a (1 − Config.Epsilon) share of the
// runs, less a binomial slack of calibrationSlackSD standard deviations of
// the miss count. A change of draw algorithm that biased or narrowed the
// sampler's error fails here whatever bits it produces.

const (
	calibrationSeeds   = 200
	calibrationSlackSD = 3
)

type calibrationCase struct {
	name  string
	truth float64
	// run returns the estimate of one run.
	run func(s *sampler.Sampler) sampler.Result
	// prob selects Result.Prob instead of Result.Mean.
	prob bool
}

func calibrationCases(t *testing.T) []calibrationCase {
	nv := func(id uint64, mu, sigma float64) expr.Expr { return expr.NewVar(gv(id, 0, dist.Normal{}, mu, sigma)) }
	// X ~ N(5, 1.5²), Y ~ N(4, 2²): X+Y ~ N(9, 2.5²).
	x, y := nv(1, 5, 1.5), nv(2, 4, 2)
	const confCut = 8.0
	mv := mvParams(t) // mean (1, −2, 0.5)
	mvc := func(sub int) expr.Expr { return expr.NewVar(gv(40, sub, dist.MVNormal{}, mv...)) }
	return []calibrationCase{
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
	}
}

func TestCalibrationNormalDraws(t *testing.T) {
	base := sampler.DefaultConfig()
	n := float64(calibrationSeeds)
	allowedMisses := int(n*base.Epsilon + calibrationSlackSD*math.Sqrt(n*base.Epsilon*(1-base.Epsilon)))
	for _, c := range calibrationCases(t) {
		t.Run(c.name, func(t *testing.T) {
			misses := 0
			worst := 0.0
			for seed := uint64(1); seed <= calibrationSeeds; seed++ {
				cfg := base
				cfg.WorldSeed = seed
				cfg.Workers = 1
				// Closed-form means would answer without drawing.
				cfg.DisableClosedForm = true
				r := c.run(sampler.New(cfg))
				if r.Err != nil {
					t.Fatalf("seed %d: %v", seed, r.Err)
				}
				if r.Exact {
					t.Fatalf("seed %d: answered exactly; the case must sample", seed)
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
				c.truth, misses, calibrationSeeds, base.Delta, allowedMisses, worst)
			if misses > allowedMisses {
				t.Fatalf("%d of %d runs missed the truth %.6g by more than %.2g relative (allowed %d)",
					misses, calibrationSeeds, c.truth, base.Delta, allowedMisses)
			}
		})
	}
}
