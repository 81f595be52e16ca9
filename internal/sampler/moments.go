package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/expr"
)

// Accumulator tracks the running first and second raw moments of a sample
// stream. It is the unit of merging in the parallel evaluation engine: each
// batch of sample indices accumulates into its own Accumulator, and batch
// accumulators are merged in batch order at round barriers, so the final
// floating-point sums are independent of how batches were scheduled across
// workers (see parallel.go for the determinism contract).
type Accumulator struct {
	// N is the number of accumulated samples.
	N int
	// Sum and SumSq are the running sums of values and squared values.
	Sum, SumSq float64
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(v float64) {
	a.Sum += v
	a.SumSq += v * v
	a.N++
}

// Merge folds another accumulator into this one. Merging is performed in
// batch order only; it is not commutative in floating point.
func (a *Accumulator) Merge(o Accumulator) {
	a.Sum += o.Sum
	a.SumSq += o.SumSq
	a.N += o.N
}

// Mean returns the sample mean (NaN when empty).
func (a Accumulator) Mean() float64 {
	if a.N == 0 {
		return math.NaN()
	}
	return a.Sum / float64(a.N)
}

// StdErr returns the standard error of the mean estimate (0 when empty).
func (a Accumulator) StdErr() float64 {
	if a.N == 0 {
		return 0
	}
	fn := float64(a.N)
	mean := a.Sum / fn
	variance := a.SumSq/fn - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance / fn)
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

// Variance computes Var[e | c] = E[e^2 | c] - E[e | c]^2. To avoid the
// catastrophic cancellation of estimating the two moments independently,
// the sampled path draws one set of conditional samples and computes both
// moments from it.
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
	var sum, sumSq float64
	for _, v := range samples {
		sum += v
		sumSq += v * v
	}
	fn := float64(len(samples))
	mean := sum / fn
	variance := sumSq/fn - mean*mean
	if variance < 0 {
		variance = 0
	}
	return VarianceResult{
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		Mean:     mean,
		N:        len(samples),
	}
}
