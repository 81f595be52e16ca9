package sampler

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
)

// Every sampled answer passes through the round barrier (fanOut). These
// tests pin what happens there: a cancellation observed at any barrier
// aborts the whole computation instead of surfacing a partial number, and
// the counters each barrier records (what SHOW STATS reports) are a pure
// function of the query, equal at every worker count.

// barrierScenario is one sampled entry point; run returns the answer's
// bits (value, probability, sample count, ...) or the abort error.
type barrierScenario struct {
	name string
	run  func(s *Sampler) ([]float64, error)
}

// barrierScenarios reaches each barrier: the adaptive group engine, the
// pre-escalated (sequential) group engine and the group's indicator stream,
// an indicator stream behind a closed-form mean, the conf() indicator
// stream, the DNF world sampler, the row batches of ExpectedSum, the world
// batches of AggregateHistogram and the fixed-count group engine behind
// ExpectationHistogram.
func barrierScenarios() []barrierScenario {
	normal := func(id uint64, mu, sigma float64) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, mu, sigma)}
	}
	expo := func(id uint64, rate float64) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Exponential{}, rate)}
	}
	v := expr.NewVar
	result := func(r Result) ([]float64, error) {
		return []float64{r.Mean, r.Prob, r.StdErr, float64(r.N)}, r.Err
	}
	// Rows whose targets are sampled under a two-variable condition.
	table := func() *ctable.Table {
		tb := ctable.New("barrier", "val")
		for i := 0; i < 19; i++ {
			x := expo(uint64(300+i), 0.5)
			y := expo(uint64(400+i), 1)
			tup := ctable.NewTuple(ctable.Symbolic(expr.Add(v(x), v(y))))
			tup.Cond = cond.FromClause(cond.Clause{cond.NewAtom(v(x), cond.GT, v(y))})
			tb.MustAppend(tup)
		}
		return tb
	}
	return []barrierScenario{
		{"expectation-adaptive", func(s *Sampler) ([]float64, error) {
			d, sv := expo(1, 1.0/40), expo(2, 1.0/760)
			c := cond.Clause{cond.NewAtom(v(d), cond.GT, v(sv))}
			return result(s.Expectation(expr.Sub(v(d), v(sv)), c, true))
		}},
		{"expectation-metropolis", func(s *Sampler) ([]float64, error) {
			a, b := normal(3, 0, 1), normal(4, 0, 1)
			e := expr.Add(v(a), v(b))
			c := cond.Clause{cond.NewAtom(e, cond.GT, expr.Const(6))}
			// A fixed budget keeps the chain walking for several batches.
			cfg := s.Config()
			cfg.DisableClosedForm = true
			cfg.FixedSamples = 300
			return result(New(cfg).Expectation(e, c, true))
		}},
		{"conf-indicator", func(s *Sampler) ([]float64, error) {
			x, y := expo(5, 0.5), expo(6, 1)
			c := cond.Clause{cond.NewAtom(v(x), cond.GT, expr.Mul(v(y), expr.Const(2)))}
			return result(s.Conf(c))
		}},
		{"expectation-prob-only", func(s *Sampler) ([]float64, error) {
			// The mean is closed-form; only the probability samples.
			x, y, z := normal(7, 1, 2), expo(8, 0.5), expo(9, 1)
			c := cond.Clause{cond.NewAtom(v(y), cond.GT, v(z))}
			return result(s.Expectation(v(x), c, true))
		}},
		{"aconf-dnf", func(s *Sampler) ([]float64, error) {
			var d cond.Condition
			for i := 0; i < 13; i++ {
				x := normal(uint64(10+i), 0, 1)
				d.Clauses = append(d.Clauses, cond.Clause{cond.NewAtom(v(x), cond.GT, expr.Const(1.5))})
			}
			return result(s.AConf(d))
		}},
		{"expected-sum", func(s *Sampler) ([]float64, error) {
			r, err := s.ExpectedSum(table(), 0)
			return []float64{r.Value, float64(r.N)}, err
		}},
		{"aggregate-histogram", func(s *Sampler) ([]float64, error) {
			return s.AggregateHistogram(table(), 0, SumFold, 300)
		}},
		{"expectation-histogram", func(s *Sampler) ([]float64, error) {
			x, y := expo(30, 0.5), expo(31, 1)
			c := cond.Clause{cond.NewAtom(v(x), cond.GT, v(y))}
			return s.ExpectationHistogram(expr.Add(v(x), v(y)), c, 500)
		}},
	}
}

// barrierSampler is the scenarios' configuration: a fixed seed and a
// sample budget small enough to sweep every barrier of a run.
func barrierSampler(workers int) *Sampler {
	cfg := DefaultConfig()
	cfg.WorldSeed = 2029
	cfg.MaxSamples = 1000
	cfg.Workers = workers
	return New(cfg)
}

// cancelOnCall is a context whose Err reports context.Canceled from its
// k-th call on, so a cancellation lands deterministically at the k-th
// check the sampler makes.
type cancelOnCall struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *cancelOnCall) Err() error {
	if c.calls.Add(1) >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryBarrier sweeps a cancellation over every check a run
// makes, at one and at four workers: the answer is either the uncancelled
// run's, bit for bit, or exactly context.Canceled — never a partial number.
func TestCancelAtEveryBarrier(t *testing.T) {
	for _, sc := range barrierScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			base, err := sc.run(barrierSampler(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				cancelled := 0
				for k := int64(1); ; k++ {
					if k > 20000 {
						t.Fatalf("workers=%d: still cancelling at check %d", workers, k)
					}
					ctx := &cancelOnCall{Context: context.Background(), k: k}
					got, err := sc.run(barrierSampler(workers).WithContext(ctx))
					if err != nil {
						if err != context.Canceled {
							t.Fatalf("workers=%d k=%d: error %v, want context.Canceled", workers, k, err)
						}
						cancelled++
						continue
					}
					if msg := sameBits(got, base); msg != "" {
						t.Fatalf("workers=%d k=%d: completed with %s", workers, k, msg)
					}
					if ctx.calls.Load() < k {
						break // the run finished before the k-th check
					}
				}
				if cancelled == 0 {
					t.Fatalf("workers=%d: no check ever cancelled the run", workers)
				}
			}
		})
	}
}

// sameBits describes how got differs from want ("" when bit-identical).
func sameBits(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d values, want %d", len(got), len(want))
	}
	for i := range want {
		if !eq(got[i], want[i]) {
			return fmt.Sprintf("value %d = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// barrierCounts is the part of a SamplerSnapshot the barriers record.
type barrierCounts struct {
	Samples, Batches, Rounds            int64
	RejectionAttempts, RejectionAccepts int64
	MetropolisProposals                 int64
}

// TestBarrierCounters pins the counters SHOW STATS reports for each
// scenario: equal at one and four workers, and equal to the values the
// engine recorded before its four batch fan-outs became one.
func TestBarrierCounters(t *testing.T) {
	want := map[string]barrierCounts{
		"expectation-adaptive":   {1000, 17, 6, 19664, 1000, 0},
		"expectation-metropolis": {600, 10, 2, 300, 300, 3500},
		"expectation-prob-only":  {752, 13, 5, 752, 752, 0},
		"conf-indicator":         {1000, 17, 6, 1000, 1000, 0},
		"aconf-dnf":              {165, 4, 1, 256, 165, 0},
		"expected-sum":           {1594, 35, 35, 2378, 1594, 0},
		"aggregate-histogram":    {300, 5, 1, 0, 0, 0},
		"expectation-histogram":  {500, 8, 1, 762, 500, 0},
	}
	for _, sc := range barrierScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				st := &obs.SamplerStats{}
				if _, err := sc.run(barrierSampler(workers).WithStats(st)); err != nil {
					t.Fatal(err)
				}
				s := st.Snapshot()
				got := barrierCounts{s.Samples, s.Batches, s.Rounds,
					s.RejectionAttempts, s.RejectionAccepts, s.MetropolisProposals}
				if got != want[sc.name] {
					t.Errorf("workers=%d: counters %+v, want %+v", workers, got, want[sc.name])
				}
			}
		})
	}
}

// TestRejectionLoopObservesDeadline: a group whose nonlinear atom never
// holds runs the whole RejectionCap for one sample, which no round barrier
// interrupts; the rejection loop looks at the context itself, so a 100 ms
// deadline ends the computation with context.DeadlineExceeded long before
// the cap would.
func TestRejectionLoopObservesDeadline(t *testing.T) {
	x := expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)})
	never := cond.Clause{cond.NewAtom(expr.Mul(x, x), cond.LT, expr.Const(-1))}
	cfg := DefaultConfig()
	cfg.Workers = 2
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := New(cfg).WithContext(ctx).Expectation(x, never, true)
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("took %v after a 100ms deadline", took)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("got %+v, want context.DeadlineExceeded", r)
	}
}
