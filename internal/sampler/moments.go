package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/expr"
)

// Accumulator tracks the count, sum and centred second moment (M2, the sum
// of squared deviations from the running mean) of a sample stream. It is the
// unit of merging in the parallel evaluation engine: each batch of sample
// indices accumulates into its own Accumulator, and batch accumulators are
// merged in batch order at round barriers, so the final floating-point
// values are independent of how batches were scheduled across workers (see
// parallel.go for the determinism contract). M2 never subtracts two large
// squares, so the spread of values far from zero does not cancel (Chan,
// Golub & LeVeque, "Algorithms for computing the sample variance", 1983).
type Accumulator struct {
	// N is the number of accumulated samples.
	N int
	// Sum is the running sum of values; M2 is Σ(v − mean)².
	Sum, M2 float64
}

// Add folds one sample into the accumulator by Welford's recurrence:
// M2 grows by δ²·n/(n+1), δ the sample's distance from the old mean.
func (a *Accumulator) Add(v float64) {
	if a.N > 0 {
		fn := float64(a.N)
		d := v - a.Sum/fn
		a.M2 += d * d * fn / (fn + 1)
	}
	a.Sum += v
	a.N++
}

// Merge folds another accumulator into this one by the pairwise rule
// M2 = M2ₐ + M2_b + δ²·nₐn_b/n, δ the distance between the two means.
// Merging is performed in batch order only; it is not commutative in
// floating point.
func (a *Accumulator) Merge(o Accumulator) {
	if a.N > 0 && o.N > 0 {
		na, nb := float64(a.N), float64(o.N)
		d := o.Sum/nb - a.Sum/na
		a.M2 += d * d * na * nb / (na + nb)
	}
	a.M2 += o.M2
	a.Sum += o.Sum
	a.N += o.N
}

// Mean returns the sample mean (NaN when empty).
func (a Accumulator) Mean() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.N)
}

// Var returns the population variance M2/N of the samples (0 when empty).
func (a Accumulator) Var() float64 {
	if a.N == 0 {
		return 0
	}
	return a.M2 / float64(a.N)
}

// StdErr returns the standard error of the mean estimate (0 when empty).
func (a Accumulator) StdErr() float64 {
	if a.N == 0 {
		return 0
	}
	return math.Sqrt(a.Var() / float64(a.N))
}

// MomentResult reports a higher-moment computation.
type MomentResult struct {
	// Moment is the k-th conditional raw moment E[e^k | c].
	Moment float64
	// N is the number of samples used (0 when exact).
	N int
	// Exact reports a closed-form result.
	Exact bool
	// Err is non-nil when the computation was aborted by Config.Ctx; the
	// other fields are then meaningless.
	Err error
}

// Moment computes the k-th raw moment E[e^k | c] (paper §III-D: the
// framework exposes "the higher moments" to statistical methods). k = 1 is
// the plain expectation; k = 2 feeds variance. e^k goes through
// Expectation, so it is exact whenever Expectation's closed forms cover it
// (an unconstrained e^k of degree ≤ 2, or a linear e over one
// linear-Gaussian group at k = 1); everything else samples.
func (s *Sampler) Moment(e expr.Expr, c cond.Clause, k int) MomentResult {
	if k < 1 {
		return MomentResult{Moment: math.NaN()}
	}
	powed := e
	for i := 1; i < k; i++ {
		powed = expr.Mul(powed, e)
	}
	r := s.Expectation(powed, c, false)
	if r.Err != nil {
		return MomentResult{Err: r.Err}
	}
	return MomentResult{Moment: r.Mean, N: r.N, Exact: r.Exact}
}

// VarianceResult reports a conditional variance computation.
type VarianceResult struct {
	Variance float64
	StdDev   float64
	Mean     float64
	N        int
	Exact    bool
	// Err is non-nil when the computation was aborted by Config.Ctx; the
	// other fields are then meaningless.
	Err error
}

// Variance computes Var[e | c] = E[(e - E[e | c])^2 | c]. The sampled path
// draws one set of conditional samples and folds it twice: SumFold for the
// mean, the two-pass VarianceFold for the spread, which does not cancel on
// values far from zero.
func (s *Sampler) Variance(e expr.Expr, c cond.Clause) VarianceResult {
	// Closed form for a bare unconstrained variable.
	if c.IsTrue() && !s.cfg.DisableClosedForm {
		if v, ok := e.(expr.Var); ok {
			if variance, okV := v.V.Dist.Variance(); okV {
				mean, _ := v.V.Dist.Mean()
				s.cfg.Stats.AddClosedFormHit()
				return VarianceResult{
					Variance: variance,
					StdDev:   math.Sqrt(variance),
					Mean:     mean,
					Exact:    true,
				}
			}
		}
	}
	samples, err := s.ExpectationHistogram(e, c, s.histogramSize())
	if err != nil {
		return VarianceResult{Err: err}
	}
	if len(samples) == 0 {
		return VarianceResult{Variance: math.NaN(), StdDev: math.NaN(), Mean: math.NaN()}
	}
	variance := VarianceFold(samples)
	return VarianceResult{
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		Mean:     SumFold(samples) / float64(len(samples)),
		N:        len(samples),
	}
}
