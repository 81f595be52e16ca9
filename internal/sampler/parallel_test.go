package sampler

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
)

// workerSampler builds a sampler with an explicit worker count (this forces
// real goroutine fan-out even on single-CPU machines, where the GOMAXPROCS
// default would run inline).
func workerSampler(workers int) *Sampler {
	cfg := DefaultConfig()
	cfg.WorldSeed = 12345
	cfg.Workers = workers
	return New(cfg)
}

// sampled returns s with the closed forms disabled, so that a scenario they
// would answer exactly still draws.
func sampled(s *Sampler) *Sampler {
	cfg := s.Config()
	cfg.DisableClosedForm = true
	return New(cfg)
}

// eq asserts bit-identity of two float64s (NaN == NaN).
func eq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

type span struct{ lo, hi int }

// TestSplitRange pins how fanOut splits its index range: fixed batches in
// batch order with a short last batch, and no batch for an empty or negative
// count, at every worker count.
func TestSplitRange(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		cfg := DefaultConfig()
		spans, err := fanOut(&cfg, workers, 10, 130, 64, func(_, lo, hi int, out *span) {
			*out = span{lo, hi}
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []span{{10, 74}, {74, 138}, {138, 140}}; !slices.Equal(spans, want) {
			t.Fatalf("workers=%d: batches %v, want %v", workers, spans, want)
		}
		var ran atomic.Bool
		mark := func(int, int, int, *span) { ran.Store(true) }
		for _, count := range []int{0, -1, -200} {
			got, err := fanOut(&cfg, workers, 5, count, 64, mark)
			if err != nil || len(got) != 0 || ran.Load() {
				t.Fatalf("workers=%d count=%d: %v, %v; want no batch and no results", workers, count, got, err)
			}
		}
	}
}

// TestForEachBatchCoversAllBatches checks that fanOut runs every index of its
// range exactly once, none outside it, and each batch under a worker id in
// [0, workers).
func TestForEachBatchCoversAllBatches(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		cfg := DefaultConfig()
		hits := make([]atomic.Int32, 140)
		var badWorker atomic.Bool
		_, err := fanOut(&cfg, workers, 10, 130, 64, func(w, lo, hi int, _ *span) {
			if w < 0 || w >= workers {
				badWorker.Store(true)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if badWorker.Load() {
			t.Fatalf("workers=%d: a batch ran under a worker id outside [0, workers)", workers)
		}
		for i := range hits {
			want := int32(0)
			if i >= 10 {
				want = 1
			}
			if hits[i].Load() != want {
				t.Fatalf("workers=%d: index %d ran %d times, want %d", workers, i, hits[i].Load(), want)
			}
		}
	}
}

// TestFanOut checks the round barrier's cancellation: a cancelled context
// runs no batch and returns its error and no results.
func TestFanOut(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		cfg := DefaultConfig()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		cfg.Ctx = ctx
		var ran atomic.Bool
		got, err := fanOut(&cfg, workers, 0, 1000, 64, func(int, int, int, *span) { ran.Store(true) })
		if err != context.Canceled || got != nil || ran.Load() {
			t.Fatalf("workers=%d: cancelled fanOut ran a batch or returned %v, %v", workers, got, err)
		}
	}
}

// expectationCorpus enumerates the sampling scenarios whose results must be
// bit-identical across worker counts: every goal-directed strategy (CDF
// inversion, rejection, escalation), the DNF world sampler, and the
// probability estimators. Scenarios the closed forms would answer without a
// draw run with them disabled.
func expectationCorpus(t *testing.T) []struct {
	name string
	run  func(s *Sampler) []float64
} {
	t.Helper()
	normal := func(id uint64, mu, sigma float64) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, mu, sigma)}
	}
	expo := func(id uint64, rate float64) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Exponential{}, rate)}
	}
	return []struct {
		name string
		run  func(s *Sampler) []float64
	}{
		{"truncated-normal-cdf", func(s *Sampler) []float64 {
			y := normal(1, 5, 3)
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(-3)),
				cond.NewAtom(expr.NewVar(y), cond.LT, expr.Const(2)),
			}
			r := sampled(s).Expectation(expr.NewVar(y), c, true)
			return []float64{r.Mean, r.Prob, r.StdErr, float64(r.N)}
		}},
		{"two-var-rejection", func(s *Sampler) []float64 {
			d := expo(2, 1.0/40)
			sv := expo(3, 1.0/760)
			e := expr.Sub(expr.NewVar(d), expr.NewVar(sv))
			c := cond.Clause{cond.NewAtom(expr.NewVar(d), cond.GT, expr.NewVar(sv))}
			r := s.Expectation(e, c, true)
			return []float64{r.Mean, r.Prob, r.StdErr, float64(r.N)}
		}},
		{"independent-groups", func(s *Sampler) []float64 {
			x := normal(4, 0, 1)
			y := normal(5, 10, 2)
			z := expo(6, 0.25)
			e := expr.Add(expr.NewVar(x), expr.NewVar(y))
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0)),
				cond.NewAtom(expr.NewVar(z), cond.LT, expr.Const(3)),
			}
			r := s.Expectation(e, c, true)
			return []float64{r.Mean, r.Prob, float64(r.N)}
		}},
		{"metropolis-tail", func(s *Sampler) []float64 {
			// Deep-tail two-variable constraint: rejection is hopeless, the
			// group pre-escalates, and the engine must fall back to in-order
			// batches so the chain state is identical for every worker count.
			a := normal(7, 0, 1)
			b := normal(8, 0, 1)
			e := expr.Add(expr.NewVar(a), expr.NewVar(b))
			c := cond.Clause{cond.NewAtom(e, cond.GT, expr.Const(6))}
			r := sampled(s).Expectation(e, c, true)
			return []float64{r.Mean, r.Prob, float64(r.N)}
		}},
		{"dnf-world-sample", func(s *Sampler) []float64 {
			x := normal(9, 0, 1)
			y := normal(10, 1, 1)
			d := cond.Condition{Clauses: []cond.Clause{
				{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0.5))},
				{cond.NewAtom(expr.NewVar(y), cond.LT, expr.Const(0))},
			}}
			r := s.ExpectationDNF(expr.Add(expr.NewVar(x), expr.NewVar(y)), d, true)
			return []float64{r.Mean, r.Prob, r.StdErr, float64(r.N)}
		}},
		{"aconf-inclusion-exclusion", func(s *Sampler) []float64 {
			x := expo(11, 0.5)
			y := expo(12, 0.5)
			d := cond.Condition{Clauses: []cond.Clause{
				{cond.NewAtom(expr.NewVar(x), cond.GT, expr.NewVar(y))},
				{cond.NewAtom(expr.NewVar(x), cond.LT, expr.Const(1))},
			}}
			r := s.AConf(d)
			return []float64{r.Prob, float64(r.N)}
		}},
		{"expectation-histogram", func(s *Sampler) []float64 {
			y := normal(13, 2, 1)
			c := cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(1))}
			vals, err := s.ExpectationHistogram(expr.NewVar(y), c, 500)
			if err != nil {
				t.Fatal(err)
			}
			return vals
		}},
		{"variance-moment", func(s *Sampler) []float64 {
			y := normal(14, 3, 2)
			c := cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(2))}
			v := s.Variance(expr.NewVar(y), c)
			m := s.Moment(expr.NewVar(y), c, 2)
			return []float64{v.Variance, v.Mean, m.Moment, float64(m.N)}
		}},
	}
}

// TestWorkersBitIdentity is the determinism contract: equal seed + any
// worker count => bit-identical results, across the whole strategy corpus.
func TestWorkersBitIdentity(t *testing.T) {
	for _, sc := range expectationCorpus(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := sc.run(workerSampler(1))
			for _, workers := range []int{2, 3, 8} {
				got := sc.run(workerSampler(workers))
				if len(got) != len(base) {
					t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(base))
				}
				for i := range base {
					if !eq(got[i], base[i]) {
						t.Fatalf("workers=%d: value %d = %v, want %v (bit-identical)",
							workers, i, got[i], base[i])
					}
				}
			}
		})
	}
}

// TestWorkersBitIdentityFixedBudget repeats the contract under the paper's
// fixed-sample configuration (no adaptive stopping).
func TestWorkersBitIdentityFixedBudget(t *testing.T) {
	mk := func(workers int) *Sampler {
		cfg := DefaultConfig()
		cfg.WorldSeed = 999
		cfg.FixedSamples = 700
		cfg.Workers = workers
		return New(cfg)
	}
	y := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 5, 3)}
	z := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Exponential{}, 0.1)}
	e := expr.Mul(expr.NewVar(y), expr.NewVar(z))
	c := cond.Clause{
		cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(4)),
		cond.NewAtom(expr.NewVar(z), cond.GT, expr.NewVar(y)),
	}
	base := mk(1).Expectation(e, c, true)
	if base.N != 700 {
		t.Fatalf("fixed budget drew %d samples, want 700", base.N)
	}
	for _, workers := range []int{2, 8} {
		got := mk(workers).Expectation(e, c, true)
		if !eq(got.Mean, base.Mean) || !eq(got.Prob, base.Prob) ||
			!eq(got.StdErr, base.StdErr) || got.N != base.N {
			t.Fatalf("workers=%d: %+v != %+v", workers, got, base)
		}
	}
}

// TestWorldSampleDNFFixedBudget pins the FixedSamples contract on the DNF
// world sampler: exactly the requested number of accepted samples is used
// (truncated in attempt order), bit-identically at every worker count.
func TestWorldSampleDNFFixedBudget(t *testing.T) {
	mk := func(workers int) *Sampler {
		cfg := DefaultConfig()
		cfg.WorldSeed = 31
		cfg.FixedSamples = 1000
		cfg.Workers = workers
		return New(cfg)
	}
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 1, 1)}
	// Near-100% acceptance: overshoot would be visible immediately.
	d := cond.Condition{Clauses: []cond.Clause{
		{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(-50))},
		{cond.NewAtom(expr.NewVar(y), cond.LT, expr.Const(50))},
	}}
	base := mk(1).ExpectationDNF(expr.Add(expr.NewVar(x), expr.NewVar(y)), d, true)
	if base.N != 1000 {
		t.Fatalf("fixed budget used %d samples, want exactly 1000", base.N)
	}
	for _, workers := range []int{2, 8} {
		got := mk(workers).ExpectationDNF(expr.Add(expr.NewVar(x), expr.NewVar(y)), d, true)
		if got.N != base.N || !eq(got.Mean, base.Mean) || !eq(got.Prob, base.Prob) {
			t.Fatalf("workers=%d: %+v != %+v", workers, got, base)
		}
	}
}

// aggregateTable builds a c-table whose rows mix deterministic values,
// symbolic targets and probabilistic conditions.
func aggregateTable(t *testing.T) *ctable.Table {
	t.Helper()
	tb := ctable.New("agg", "val")
	for i := 0; i < 40; i++ {
		mu := float64(i%7) + 1
		v := &expr.Variable{Key: expr.VarKey{ID: uint64(100 + i)}, Dist: dist.MustInstance(dist.Normal{}, mu, 1)}
		g := &expr.Variable{Key: expr.VarKey{ID: uint64(200 + i)}, Dist: dist.MustInstance(dist.Exponential{}, 0.5)}
		tup := ctable.NewTuple(ctable.Symbolic(expr.NewVar(v)))
		tup.Cond = cond.FromClause(cond.Clause{
			cond.NewAtom(expr.NewVar(g), cond.GT, expr.Const(float64(i%3))),
		})
		tb.MustAppend(tup)
	}
	return tb
}

// TestAggregateWorkersBitIdentity checks the contract on the row-parallel
// aggregate operators and the world-parallel histogram path.
func TestAggregateWorkersBitIdentity(t *testing.T) {
	tb := aggregateTable(t)
	type aggOut struct {
		sum, cnt, avg, max float64
		hist               []float64
	}
	run := func(workers int) aggOut {
		s := workerSampler(workers)
		sum, err := s.ExpectedSum(tb, 0)
		if err != nil {
			t.Fatal(err)
		}
		cnt, err := s.ExpectedCount(tb)
		if err != nil {
			t.Fatal(err)
		}
		avg, err := s.ExpectedAvg(tb, 0)
		if err != nil {
			t.Fatal(err)
		}
		max, err := s.ExpectedMaxNaive(tb, 0)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := s.AggregateHistogram(tb, 0, SumFold, 300)
		if err != nil {
			t.Fatal(err)
		}
		return aggOut{sum.Value, cnt.Value, avg.Value, max.Value, hist}
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !eq(got.sum, base.sum) || !eq(got.cnt, base.cnt) ||
			!eq(got.avg, base.avg) || !eq(got.max, base.max) {
			t.Fatalf("workers=%d: %+v != %+v", workers, got, base)
		}
		for i := range base.hist {
			if !eq(got.hist[i], base.hist[i]) {
				t.Fatalf("workers=%d: hist[%d] = %v, want %v", workers, i, got.hist[i], base.hist[i])
			}
		}
	}
}

// TestUnsatisfiableParallel checks that rejection-cap failure (NaN result)
// is reported identically at every worker count.
func TestUnsatisfiableParallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 5
	cfg.RejectionCap = 500
	cfg.DisableMetropolis = true
	// Force natural generation + rejection (no CDF boxing): a 1e-9-mass
	// tail is then unreachable within a 500-attempt cap.
	cfg.DisableCDFInversion = true
	u := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Uniform{}, 0, 1)}
	c := cond.Clause{cond.NewAtom(expr.NewVar(u), cond.GT, expr.Const(1-1e-9))}
	for _, workers := range []int{1, 8} {
		cfg.Workers = workers
		r := New(cfg).Expectation(expr.NewVar(u), c, true)
		if !math.IsNaN(r.Mean) || r.Prob != 0 {
			t.Fatalf("workers=%d: unreachable region gave %+v, want NaN/0", workers, r)
		}
	}
}

// TestEffectiveWorkers pins the Workers resolution rule.
func TestEffectiveWorkers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Workers != 0 {
		t.Fatalf("default Workers = %d, want 0 (auto)", cfg.Workers)
	}
	if got := cfg.effectiveWorkers(); got < 1 {
		t.Fatalf("auto workers resolved to %d", got)
	}
	cfg.Workers = 5
	if got := cfg.effectiveWorkers(); got != 5 {
		t.Fatalf("explicit workers resolved to %d, want 5", got)
	}
}
