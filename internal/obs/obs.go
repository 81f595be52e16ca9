// Package obs is PIP's zero-dependency telemetry core: atomic counter sets
// for the sampling engine, fixed-bucket histograms for latencies and sizes,
// and span-style phase timers for query tracing.
//
// The package is deliberately dumb about what it measures — it only counts
// and times. The sampler threads a SamplerStats through its batch barriers
// (internal/sampler), the SQL layer attaches a QueryStats per statement
// (internal/sql), the engine keeps one EngineStats per catalog
// (internal/core, surfaced by SHOW STATS), and the network server renders
// Histogram snapshots as Prometheus exposition (internal/server).
//
// Determinism contract: nothing in this package draws randomness or
// influences control flow of its callers. Every recording method on a nil
// receiver is a no-op, so instrumented code paths read identically with
// telemetry on or off, and all sampler-side recording happens at batch
// barriers on the merging goroutine (plus atomic adds on the sequential
// Metropolis path) — stats collection never perturbs PRNG state or batch
// merge order.
package obs

import (
	"sync"
	"sync/atomic"
)

// SamplerStats is an atomic counter set over the sampling engine's work:
// samples drawn, batches dispatched, rounds run, rejection and Metropolis
// accounting, and the exact/closed-form fast-path hit counters. Counter
// sets chain through Parent — an operator-level set parents a query-level
// set which parents the engine-wide set — so one Add call feeds every
// enclosing scope. All methods are safe for concurrent use and are no-ops
// on a nil receiver.
type SamplerStats struct {
	// Parent, when non-nil, receives every add this set receives (set once
	// at construction, never mutated afterwards).
	Parent *SamplerStats

	samples     atomic.Int64
	batches     atomic.Int64
	rounds      atomic.Int64
	rejAttempts atomic.Int64
	rejAccepts  atomic.Int64
	proposals   atomic.Int64
	mAccepts    atomic.Int64
	escalations atomic.Int64
	exactCDF    atomic.Int64
	closedForm  atomic.Int64

	mu   sync.Mutex
	traj []TrajectoryPoint
}

// TrajectoryPoint is one barrier observation of adaptive (epsilon, delta)
// stopping: after N accepted samples the confidence half-width stood at
// RelWidth relative to the running mean. The sequence of points is the
// epsilon-trajectory of a query's convergence.
type TrajectoryPoint struct {
	// N is the merged accepted-sample count at the barrier.
	N int
	// RelWidth is the z-scaled relative confidence half-width the stopping
	// rule compared against Delta (0 when the mean is zero).
	RelWidth float64
}

// maxTrajectory bounds the recorded epsilon-trajectory; adaptive runs
// double their round sizes, so real trajectories are far shorter.
const maxTrajectory = 64

// AddRound counts one completed engine round (a barrier merge): the
// batches it dispatched, the samples it merged, and the rejection work
// behind them — attempts candidate draws of which accepts satisfied their
// constraint group.
func (s *SamplerStats) AddRound(batches, samples, attempts, accepts int64) {
	for p := s; p != nil; p = p.Parent {
		p.rounds.Add(1)
		p.batches.Add(batches)
		p.samples.Add(samples)
		p.rejAttempts.Add(attempts)
		p.rejAccepts.Add(accepts)
	}
}

// AddMetropolis counts one random-walk proposal; accepted marks it taken.
func (s *SamplerStats) AddMetropolis(accepted bool) {
	for p := s; p != nil; p = p.Parent {
		p.proposals.Add(1)
		if accepted {
			p.mAccepts.Add(1)
		}
	}
}

// AddEscalation counts one group escalating from rejection sampling to the
// Metropolis random walk.
func (s *SamplerStats) AddEscalation() {
	for p := s; p != nil; p = p.Parent {
		p.escalations.Add(1)
	}
}

// AddExactCDFHit counts one probability integrated exactly via a CDF
// instead of sampled.
func (s *SamplerStats) AddExactCDFHit() {
	for p := s; p != nil; p = p.Parent {
		p.exactCDF.Add(1)
	}
}

// AddClosedFormHit counts one expectation answered by a closed-form mean
// with no sampling at all.
func (s *SamplerStats) AddClosedFormHit() {
	for p := s; p != nil; p = p.Parent {
		p.closedForm.Add(1)
	}
}

// RecordTrajectory appends one adaptive-stopping barrier observation. Only
// the set it is called on records the point (the trajectory is a per-query
// shape, not an aggregate), and recording stops at a fixed bound.
func (s *SamplerStats) RecordTrajectory(n int, relWidth float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.traj) < maxTrajectory {
		s.traj = append(s.traj, TrajectoryPoint{N: n, RelWidth: relWidth})
	}
	s.mu.Unlock()
}

// Trajectory returns a copy of the recorded epsilon-trajectory.
func (s *SamplerStats) Trajectory() []TrajectoryPoint {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TrajectoryPoint(nil), s.traj...)
}

// SamplerSnapshot is a point-in-time copy of a SamplerStats counter set.
type SamplerSnapshot struct {
	// Samples is the number of accepted samples merged at round barriers.
	Samples int64
	// Batches is the number of sample batches dispatched to the pool.
	Batches int64
	// Rounds is the number of barrier-delimited engine rounds.
	Rounds int64
	// RejectionAttempts and RejectionAccepts are the rejection sampler's
	// candidate draw and acceptance counts.
	RejectionAttempts int64
	RejectionAccepts  int64
	// MetropolisProposals and MetropolisAccepts count random-walk steps.
	MetropolisProposals int64
	MetropolisAccepts   int64
	// Escalations counts groups that switched to the Metropolis walk.
	Escalations int64
	// ExactCDFHits counts probabilities integrated exactly via CDFs.
	ExactCDFHits int64
	// ClosedFormHits counts expectations answered by closed-form means.
	ClosedFormHits int64
}

// Snapshot copies the current counter values (zero value on nil).
func (s *SamplerStats) Snapshot() SamplerSnapshot {
	if s == nil {
		return SamplerSnapshot{}
	}
	return SamplerSnapshot{
		Samples:             s.samples.Load(),
		Batches:             s.batches.Load(),
		Rounds:              s.rounds.Load(),
		RejectionAttempts:   s.rejAttempts.Load(),
		RejectionAccepts:    s.rejAccepts.Load(),
		MetropolisProposals: s.proposals.Load(),
		MetropolisAccepts:   s.mAccepts.Load(),
		Escalations:         s.escalations.Load(),
		ExactCDFHits:        s.exactCDF.Load(),
		ClosedFormHits:      s.closedForm.Load(),
	}
}

// AcceptRate returns the rejection sampler's acceptance fraction, and
// whether any attempts were made at all.
func (ss SamplerSnapshot) AcceptRate() (float64, bool) {
	if ss.RejectionAttempts == 0 {
		return 0, false
	}
	return float64(ss.RejectionAccepts) / float64(ss.RejectionAttempts), true
}
