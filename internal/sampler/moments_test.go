package sampler

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/prng"
)

func TestMomentClosedForms(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 3, 2)
	m1 := s.Moment(expr.NewVar(y), cond.TrueClause(), 1)
	if !m1.Exact || m1.Moment != 3 {
		t.Fatalf("first moment %+v", m1)
	}
	// E[Y^2] = var + mean^2 = 4 + 9 = 13.
	m2 := s.Moment(expr.NewVar(y), cond.TrueClause(), 2)
	if !m2.Exact || m2.Moment != 13 {
		t.Fatalf("second moment %+v", m2)
	}
}

func TestMomentSampledThird(t *testing.T) {
	// Third raw moment of N(0,1) is 0; of N(1,1) is mu^3+3*mu*sigma^2 = 4.
	cfg := DefaultConfig()
	cfg.WorldSeed = 4
	cfg.FixedSamples = 20000
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 1, 1)
	m3 := s.Moment(expr.NewVar(y), cond.TrueClause(), 3)
	if m3.Exact {
		t.Fatal("third moment should be sampled")
	}
	if math.Abs(m3.Moment-4) > 0.3 {
		t.Fatalf("third moment %v, want 4", m3.Moment)
	}
}

func TestMomentInvalidOrder(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	if m := s.Moment(expr.NewVar(y), cond.TrueClause(), 0); !math.IsNaN(m.Moment) {
		t.Fatalf("k=0 moment %v", m.Moment)
	}
}

func TestVarianceClosedForm(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Exponential{}, 0.5)
	v := s.Variance(expr.NewVar(y), cond.TrueClause())
	if !v.Exact || v.Variance != 4 || v.StdDev != 2 || v.Mean != 2 {
		t.Fatalf("%+v", v)
	}
}

func TestVarianceConditional(t *testing.T) {
	// Var[U | U > 0.5] for U ~ Uniform(0,1) = (0.5)^2/12.
	cfg := DefaultConfig()
	cfg.WorldSeed = 4
	cfg.FixedSamples = 20000
	s := New(cfg)
	u := mkVar(t, dist.Uniform{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(u), cond.GT, expr.Const(0.5))}
	v := s.Variance(expr.NewVar(u), c)
	want := 0.25 / 12
	if math.Abs(v.Variance-want) > 0.1*want {
		t.Fatalf("conditional variance %v, want %v", v.Variance, want)
	}
	if math.Abs(v.Mean-0.75) > 0.01 {
		t.Fatalf("conditional mean %v", v.Mean)
	}
}

func TestVarianceOfExpression(t *testing.T) {
	// Var[2Y + 5] = 4*Var[Y].
	cfg := DefaultConfig()
	cfg.WorldSeed = 4
	cfg.FixedSamples = 20000
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 0, 3)
	e := expr.Add(expr.Mul(expr.Const(2), expr.NewVar(y)), expr.Const(5))
	v := s.Variance(e, cond.TrueClause())
	if math.Abs(v.Variance-36) > 2 {
		t.Fatalf("Var[2Y+5] = %v, want 36", v.Variance)
	}
}

// TestVarianceSampleBudget: a sampled variance draws the fixed world
// budget every per-world fallback draws — max_samples up to its 10 000
// cap — so raising max_samples past the cap never draws fewer samples.
func TestVarianceSampleBudget(t *testing.T) {
	for _, c := range []struct{ maxSamples, want int }{{500, 500}, {10000, 10000}, {20000, 10000}} {
		cfg := DefaultConfig()
		cfg.WorldSeed = 4
		cfg.MaxSamples = c.maxSamples
		s := New(cfg)
		u := mkVar(t, dist.Uniform{}, 0, 1)
		v := s.Variance(expr.NewVar(u), cond.Clause{atom(expr.NewVar(u), cond.GT, expr.Const(0.5))})
		if v.Exact || v.N != c.want {
			t.Fatalf("max_samples = %d: variance drew N = %d (exact %v), want %d", c.maxSamples, v.N, v.Exact, c.want)
		}
	}
}

func TestAggregateVariance(t *testing.T) {
	// Sum of two independent N(0,2) rows: Var = 8.
	s := testSampler()
	y1 := mkVar(t, dist.Normal{}, 0, 2)
	y2 := mkVar(t, dist.Normal{}, 0, 2)
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y1))))
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y2))))
	if v := sumVariance(t, s, tb); math.Abs(v-8) > 0.5 {
		t.Fatalf("Var[sum] = %v, want 8", v)
	}
	// Shared variable: sum = 2Y, Var = 4*Var[Y] = 16, not 8.
	tb2 := ctable.New("t2", "v")
	tb2.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y1))))
	tb2.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y1))))
	if v := sumVariance(t, s, tb2); math.Abs(v-16) > 1 {
		t.Fatalf("Var[2Y] = %v, want 16 (correlation lost?)", v)
	}
}

// TestAccumulatorOffsetSpread: 1e9 + U draws, accumulated in batches of 64
// merged in batch order as the engines do, keep their spread, where a
// one-pass sumSq/n − mean² cancels it to 0 or to rounding noise. The stop
// rule reads that same half-width, and M2 has the same bits at every worker
// count.
func TestAccumulatorOffsetSpread(t *testing.T) {
	const n = 5000
	draw := func(i int) float64 { return 1e9 + prng.NewKeyed(7, uint64(i)).Float64() }
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = draw(i)
	}
	want := VarianceFold(xs)
	cfg := DefaultConfig()
	z := cfg.zTarget()
	wantWidth := z * math.Sqrt(want/n) / (SumFold(xs) / n)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-6*math.Abs(want) }
	var m2 []float64
	for _, workers := range []int{1, 3, 16} {
		batches, err := fanOut(&cfg, workers, 0, n, sampleBatchSize, func(_, lo, hi int, a *Accumulator) {
			for i := lo; i < hi; i++ {
				a.Add(draw(i))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var acc Accumulator
		for _, b := range batches {
			acc.Merge(b)
		}
		m2 = append(m2, acc.M2)
		if !near(acc.Var(), want) || !near(acc.StdErr(), math.Sqrt(want/n)) || !near(cfg.relWidth(acc, z), wantWidth) {
			t.Fatalf("workers %d: Var %v StdErr %v relWidth %v, want %v %v %v", workers,
				acc.Var(), acc.StdErr(), cfg.relWidth(acc, z), want, math.Sqrt(want/n), wantWidth)
		}
		// The stop rule continues exactly while the half-width exceeds Delta.
		for _, f := range []float64{0.5, 2} {
			cfg := cfg
			cfg.Delta = f * wantWidth
			if cfg.wantMore(acc, z) != (f < 1) {
				t.Fatalf("workers %d: wantMore at Delta = %v × half-width is %v", workers, f, !(f < 1))
			}
		}
	}
	for i := range m2[1:] {
		if math.Float64bits(m2[i+1]) != math.Float64bits(m2[0]) {
			t.Fatalf("M2 differs across worker counts: %v", m2)
		}
	}
}

// sumVariance is the variance across possible worlds of sum(v) over tb,
// computed from 20 000 AggregateHistogram worlds.
func sumVariance(t *testing.T, s *Sampler, tb *ctable.Table) float64 {
	t.Helper()
	hist, err := s.AggregateHistogram(tb, 0, SumFold, 20000)
	if err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, v := range hist {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(len(hist))
	return sumSq/float64(len(hist)) - mean*mean
}

func TestVarianceUnsatisfiable(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Exponential{}, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.LT, expr.Const(-1))}
	v := s.Variance(expr.NewVar(y), c)
	if !math.IsNaN(v.Variance) {
		t.Fatalf("unsatisfiable variance %v", v.Variance)
	}
}
