// Package sampler implements PIP's sampling and integration layer
// (paper §IV): the expectation operator of Algorithm 4.3, goal-directed
// sampling strategies (rejection, inverse-CDF constrained sampling,
// independence partitioning, Metropolis fallback), exact CDF integration of
// single-variable conditions, confidence computation, and the aggregate
// operators (expected_sum, expected_max, expected_avg, histograms).
//
// The deferred, symbolic representation is what makes these strategies
// possible: by the time an expectation is requested, the full constraint
// clause and target expression are known, so the sampler can partition the
// constraints into independent groups, derive per-variable bounds, pick the
// cheapest sound strategy per group, and stop adaptively.
//
// Sample worlds are evaluated by a deterministic parallel engine: sample
// indices shard into fixed batches across a goroutine pool (Config.Workers)
// and per-batch accumulators merge in batch order, so equal seeds produce
// bit-identical results at every worker count — see parallel.go and
// docs/ARCHITECTURE.md for the contract.
package sampler

import (
	"context"
	"math"

	"pip/internal/dist"
	"pip/internal/obs"
)

// Config tunes the sampling process. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Epsilon and Delta give the (epsilon, delta) stopping goal of
	// Algorithm 4.3: with confidence 1-Epsilon the relative error of the
	// reported expectation is below Delta.
	Epsilon float64
	Delta   float64

	// MinSamples and MaxSamples bracket the adaptive sample count.
	MinSamples int
	MaxSamples int

	// FixedSamples, when positive, disables adaptive stopping and draws
	// exactly this many accepted samples (the paper's fixed-1000-sample
	// experiments).
	FixedSamples int

	// MetropolisThreshold is the rejection-rate threshold beyond which a
	// group escalates from rejection sampling to the Metropolis random
	// walk (Algorithm 4.3 line 19). 0.995 means: switch once fewer than
	// 1 in 200 proposals are accepted.
	MetropolisThreshold float64
	// MetropolisBurnIn is the number of initial random-walk steps
	// discarded before the chain is considered mixed.
	MetropolisBurnIn int
	// MetropolisThin is the number of random-walk steps between samples.
	MetropolisThin int

	// RejectionCap bounds the attempts for a single accepted sample before
	// the group gives up (returning NaN per the paper's semantics for
	// unsatisfiable contexts).
	RejectionCap int

	// WorldSeed parameterizes every pseudorandom draw; two runs with equal
	// seeds produce identical results.
	WorldSeed uint64

	// Workers is the number of goroutines used to evaluate sample worlds in
	// parallel. Zero (the default) resolves to runtime.GOMAXPROCS(0); one
	// forces fully sequential evaluation. Because every draw is a pure
	// function of its sample index and per-batch accumulators merge in batch
	// order, equal seeds produce bit-identical results for every Workers
	// value (see parallel.go).
	Workers int

	// Ctx, when non-nil, is observed by the parallel engine at batch
	// dispatch and round barriers: cancellation or deadline expiry aborts
	// sampling promptly. An aborted computation reports the context error
	// (Result.Err, or the error return of the aggregate operators) and never
	// a partial estimate, so the bit-identity determinism contract is
	// unaffected — a query either completes identically or fails with
	// ctx.Err(). Use Sampler.WithContext to scope a sampler to a request.
	Ctx context.Context

	// Stats, when non-nil, receives the engine's telemetry: samples merged
	// at round barriers, batches dispatched, rounds run, rejection and
	// Metropolis accounting, fast-path hits, and the epsilon-trajectory of
	// adaptive stopping. Recording is deterministic-neutral — counters are
	// atomic, updated at barriers or on the sequential walk, and never
	// influence PRNG state, batch boundaries, or merge order. Use
	// Sampler.WithStats to scope a sampler to a collection point.
	Stats *obs.SamplerStats

	// Ablation switches (all false in normal operation).
	DisableCDFInversion bool // force natural generation + rejection
	DisableIndependence bool // treat all constraint atoms as one group
	DisableMetropolis   bool // never escalate to Metropolis
	DisableExactCDF     bool // never integrate exactly; always sample
	DisableClosedForm   bool // never use closed-form means; always sample
}

// DefaultConfig returns the configuration used by the paper's experiments:
// 95% confidence, 5% relative error, adaptive up to 10k samples.
func DefaultConfig() Config {
	return Config{
		Epsilon:             0.05,
		Delta:               0.05,
		MinSamples:          30,
		MaxSamples:          10000,
		MetropolisThreshold: 0.995,
		MetropolisBurnIn:    500,
		MetropolisThin:      10,
		RejectionCap:        200000,
		WorldSeed:           0x5eed,
	}
}

// ctxErr returns the configuration context's error, or nil when no context
// is attached. It is the cancellation check fanOut applies before each batch
// and at the round barrier.
func (c *Config) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// zTarget returns sqrt(2) * erfinv(1 - epsilon): the z-score half-width of
// the (1-epsilon) confidence interval (Algorithm 4.3 line 3). It costs an
// erf evaluation, so each sampling loop computes it once and hands it to
// every barrier check.
func (c Config) zTarget() float64 {
	eps := c.Epsilon
	if eps <= 0 {
		eps = 0.05
	}
	if eps >= 1 {
		eps = 0.99
	}
	return math.Sqrt2 * dist.ErfInv(1-eps)
}

// wantSamples reports whether sampling should continue after n accepted
// samples with running sums sum and sumSq; z is c.zTarget().
func (c Config) wantSamples(n int, sum, sumSq, z float64) bool {
	if c.FixedSamples > 0 {
		return n < c.FixedSamples
	}
	if n < c.MinSamples {
		return true
	}
	if n >= c.MaxSamples {
		return false
	}
	fn := float64(n)
	mean := sum / fn
	variance := sumSq/fn - mean*mean
	if variance < 0 {
		variance = 0
	}
	stderr := math.Sqrt(variance / fn)
	// Stop when the confidence half-width is within Delta relative error
	// (with a small absolute floor so a zero mean can converge).
	tol := c.Delta * math.Max(math.Abs(mean), 1e-9)
	return z*stderr > tol
}

// wantMore is wantSamples over a merged accumulator — the (epsilon, delta)
// stopping check applied at batch barriers by the parallel engine.
func (c Config) wantMore(a Accumulator, z float64) bool {
	return c.wantSamples(a.N, a.Sum, a.SumSq, z)
}

// relWidth returns the z-scaled confidence half-width of the accumulator's
// running mean, relative to the same mean floor the stopping rule uses —
// the quantity wantSamples compares against Delta. It parameterizes the
// recorded epsilon-trajectory; it never feeds back into control flow. z is
// c.zTarget().
func (c Config) relWidth(a Accumulator, z float64) float64 {
	if a.N == 0 {
		return 0
	}
	fn := float64(a.N)
	mean := a.Sum / fn
	variance := a.SumSq/fn - mean*mean
	if variance < 0 {
		variance = 0
	}
	stderr := math.Sqrt(variance / fn)
	return z * stderr / math.Max(math.Abs(mean), 1e-9)
}

// nextRoundSize returns how many further samples the adaptive engine should
// draw before re-checking the confidence bound, given n accepted so far. The
// schedule is a pure function of n and the configuration — never of the
// worker count — so the sequence of barrier checks (and therefore the final
// sample count) is identical for every Config.Workers:
//
//   - fixed budgets run as one round;
//   - the first adaptive round draws MinSamples;
//   - later rounds double the pool (bounded below by one batch and above by
//     MaxSamples), amortizing barrier overhead while keeping overshoot
//     within 2x of the sequential per-sample check.
func (c Config) nextRoundSize(n int) int {
	if c.FixedSamples > 0 {
		return c.FixedSamples - n
	}
	if n < c.MinSamples {
		return c.MinSamples - n
	}
	r := n
	if r < sampleBatchSize {
		r = sampleBatchSize
	}
	if n+r > c.MaxSamples {
		r = c.MaxSamples - n
	}
	return r
}
