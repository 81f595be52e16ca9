package sampler

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
)

// uniformRowCond builds a condition with exact probability p using an
// independent Uniform(0,1) variable: U < p.
func uniformRowCond(t *testing.T, p float64) cond.Condition {
	t.Helper()
	u := mkVar(t, dist.Uniform{}, 0, 1)
	return cond.FromClause(cond.Clause{atom(expr.NewVar(u), cond.LT, expr.Const(p))})
}

func TestExpectedSumDeterministic(t *testing.T) {
	s := testSampler()
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Float(3)))
	tb.MustAppend(ctable.NewTuple(ctable.Float(4)))
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Value != 7 {
		t.Fatalf("sum %v exact %v", r.Value, r.Exact)
	}
}

func TestExpectedSumWithConfidences(t *testing.T) {
	// Rows worth 10 and 20 with exact probabilities 0.25 and 0.5:
	// E[sum] = 10*0.25 + 20*0.5 = 12.5, exactly integrable via CDF.
	s := testSampler()
	tb := ctable.New("t", "v")
	t1 := ctable.NewTuple(ctable.Float(10))
	t1.Cond = uniformRowCond(t, 0.25)
	t2 := ctable.NewTuple(ctable.Float(20))
	t2.Cond = uniformRowCond(t, 0.5)
	tb.MustAppend(t1)
	tb.MustAppend(t2)
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-12.5) > 1e-9 {
		t.Fatalf("E[sum] = %v, want 12.5", r.Value)
	}
}

func TestExpectedSumSymbolicTargets(t *testing.T) {
	// Two normal-valued rows, unconditioned: E[sum] = mu1 + mu2 exactly
	// (linearity short-circuits sampling).
	s := testSampler()
	y1 := mkVar(t, dist.Normal{}, 5, 1)
	y2 := mkVar(t, dist.Normal{}, 7, 2)
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y1))))
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y2))))
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || math.Abs(r.Value-12) > 1e-12 {
		t.Fatalf("E[sum] = %v exact=%v", r.Value, r.Exact)
	}
}

func TestExpectedSumConditionedTarget(t *testing.T) {
	// One row: value Y ~ N(0,1) conditioned on Y > 1.
	// Contribution = P[Y>1] * E[Y | Y>1] = phi(1) (Mills ratio identity:
	// E[Y|Y>t]*P[Y>t] = phi(t)). Sampled: the closed form would answer it
	// exactly.
	cfg := testSampler().Config()
	cfg.DisableClosedForm = true
	s := New(cfg)
	y := mkVar(t, dist.Normal{}, 0, 1)
	tb := ctable.New("t", "v")
	tup := ctable.NewTuple(ctable.Symbolic(expr.NewVar(y)))
	tup.Cond = cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))})
	tb.MustAppend(tup)
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := phi(1)
	if math.Abs(r.Value-want) > 0.02 {
		t.Fatalf("E[sum] = %v, want %v", r.Value, want)
	}
}

func TestExpectedCount(t *testing.T) {
	s := testSampler()
	tb := ctable.New("t", "v")
	t1 := ctable.NewTuple(ctable.Float(1))
	t1.Cond = uniformRowCond(t, 0.3)
	t2 := ctable.NewTuple(ctable.Float(1)) // always present
	tb.MustAppend(t1)
	tb.MustAppend(t2)
	r, err := s.ExpectedCount(tb)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-1.3) > 1e-9 {
		t.Fatalf("E[count] = %v, want 1.3", r.Value)
	}
}

func TestExpectedAvg(t *testing.T) {
	s := testSampler()
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Float(10)))
	tb.MustAppend(ctable.NewTuple(ctable.Float(20)))
	r, err := s.ExpectedAvg(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-15) > 1e-9 {
		t.Fatalf("E[avg] = %v", r.Value)
	}
	empty := ctable.New("e", "v")
	r, err = s.ExpectedAvg(empty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r.Value) {
		t.Fatalf("avg of empty table = %v, want NaN", r.Value)
	}
}

func TestExpectedMaxExample44(t *testing.T) {
	// The paper's Example 4.4 table: values 5, 4, 1, 0 with row
	// probabilities 0.7, 0.8, 0.3, 0.6 (independent conditions).
	// Correct expectation with independent rows, scanning in descending
	// order (absent-all worlds contribute 0):
	// E[max] = 5*.7 + 4*.8*(1-.7) + 1*.3*(1-.7)(1-.8) + 0*... = 4.478
	s := testSampler()
	tb := ctable.New("R", "A")
	add := func(v, p float64) {
		tup := ctable.NewTuple(ctable.Float(v))
		tup.Cond = uniformRowCond(t, p)
		tb.MustAppend(tup)
	}
	add(5, 0.7)
	add(4, 0.8)
	add(1, 0.3)
	add(0, 0.6)
	r, err := s.ExpectedMax(tb, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 5*0.7 + 4*0.8*0.3 + 1*0.3*0.3*0.2
	if math.Abs(r.Value-want) > 1e-9 {
		t.Fatalf("E[max] = %v, want %v", r.Value, want)
	}
	if !r.Exact {
		t.Fatal("independent uniform-interval rows should be exact")
	}
}

func TestExpectedMaxEarlyTermination(t *testing.T) {
	// With precision 0.1, scanning the Example 4.4 table stops before the
	// low-value rows: after rows 5 and 4, P[none] = 0.06 and the largest
	// remaining value is 1, so the residual bound 0.06 < 0.1.
	s := testSampler()
	tb := ctable.New("R", "A")
	add := func(v, p float64) {
		tup := ctable.NewTuple(ctable.Float(v))
		tup.Cond = uniformRowCond(t, p)
		tb.MustAppend(tup)
	}
	add(5, 0.7)
	add(4, 0.8)
	add(1, 0.3)
	add(0, 0.6)
	r, err := s.ExpectedMax(tb, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsScanned >= 4 {
		t.Fatalf("scanned %d rows; early termination failed", r.RowsScanned)
	}
	exact := 5*0.7 + 4*0.8*0.3 + 1*0.3*0.3*0.2
	if math.Abs(r.Value-exact) > 0.1 {
		t.Fatalf("early-terminated E[max] = %v, exact %v", r.Value, exact)
	}
}

func TestExpectedMaxSharedVariableFallsBack(t *testing.T) {
	// Two rows conditioned on the same variable are NOT independent; the
	// sorted algorithm must detect this and fall back to world sampling.
	// Rows: value 10 when U < 0.5, value 5 when U >= 0.5 (complementary!).
	// True E[max] = 10*0.5 + 5*0.5 = 7.5 — the independent formula would
	// give 10*0.5 + 5*0.5*0.5 = 6.25.
	cfg := DefaultConfig()
	cfg.WorldSeed = 42
	cfg.MaxSamples = 4000
	s := New(cfg)
	u := mkVar(t, dist.Uniform{}, 0, 1)
	tb := ctable.New("t", "v")
	t1 := ctable.NewTuple(ctable.Float(10))
	t1.Cond = cond.FromClause(cond.Clause{atom(expr.NewVar(u), cond.LT, expr.Const(0.5))})
	t2 := ctable.NewTuple(ctable.Float(5))
	t2.Cond = cond.FromClause(cond.Clause{atom(expr.NewVar(u), cond.GE, expr.Const(0.5))})
	tb.MustAppend(t1)
	tb.MustAppend(t2)
	r, err := s.ExpectedMax(tb, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-7.5) > 0.15 {
		t.Fatalf("correlated E[max] = %v, want 7.5", r.Value)
	}
}

func TestExpectedMaxSymbolicTargets(t *testing.T) {
	// max over two unconditioned normals: E[max(A,B)] for A~N(0,1),
	// B~N(0,1) iid = 1/sqrt(pi).
	cfg := DefaultConfig()
	cfg.WorldSeed = 21
	cfg.MaxSamples = 8000
	s := New(cfg)
	a := mkVar(t, dist.Normal{}, 0, 1)
	b := mkVar(t, dist.Normal{}, 0, 1)
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(a))))
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(b))))
	r, err := s.ExpectedMax(tb, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(math.Pi)
	if math.Abs(r.Value-want) > 0.05 {
		t.Fatalf("E[max of two normals] = %v, want %v", r.Value, want)
	}
}

func TestAggregateHistogram(t *testing.T) {
	// Histogram of the sum over one always-present N(10,2) row: sample
	// mean must approach 10, sample stddev ~2.
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 10, 2)
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(y))))
	hist, err := s.AggregateHistogram(tb, 0, SumFold, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 5000 {
		t.Fatalf("got %d samples", len(hist))
	}
	var sum, sumSq float64
	for _, v := range hist {
		sum += v
		sumSq += v * v
	}
	mean := sum / 5000
	sd := math.Sqrt(sumSq/5000 - mean*mean)
	if math.Abs(mean-10) > 0.15 || math.Abs(sd-2) > 0.15 {
		t.Fatalf("hist mean %v sd %v", mean, sd)
	}
}

func TestHistogramRespectsPresence(t *testing.T) {
	// A row with P = 0.5 contributes in about half the worlds.
	s := testSampler()
	tb := ctable.New("t", "v")
	tup := ctable.NewTuple(ctable.Float(1))
	tup.Cond = uniformRowCond(t, 0.5)
	tb.MustAppend(tup)
	hist, err := s.AggregateHistogram(tb, 0, SumFold, 8000)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range hist {
		if v == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(len(hist))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("presence fraction %v", frac)
	}
}

func TestHistogramSharedVariableCorrelation(t *testing.T) {
	// Two rows referencing the SAME variable must be perfectly correlated
	// in every world: sum is either 0 or 2, never 1.
	s := testSampler()
	u := mkVar(t, dist.Uniform{}, 0, 1)
	clause := cond.FromClause(cond.Clause{atom(expr.NewVar(u), cond.LT, expr.Const(0.5))})
	tb := ctable.New("t", "v")
	t1 := ctable.NewTuple(ctable.Float(1))
	t1.Cond = clause
	t2 := ctable.NewTuple(ctable.Float(1))
	t2.Cond = clause
	tb.MustAppend(t1)
	tb.MustAppend(t2)
	hist, err := s.AggregateHistogram(tb, 0, SumFold, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range hist {
		if v != 0 && v != 2 {
			t.Fatalf("shared-variable worlds decorrelated: sum %v", v)
		}
	}
}

func TestExpectationHistogramConditioned(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(1))}
	hist, err := s.ExpectationHistogram(expr.NewVar(y), c, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2000 {
		t.Fatalf("got %d samples", len(hist))
	}
	for _, v := range hist {
		if v <= 1 {
			t.Fatalf("conditional sample %v violates Y>1", v)
		}
	}
}

func TestGroupedSumMatchesManual(t *testing.T) {
	// Regression for the per-row path under group-by usage: build two
	// "groups" by hand as separate tables and compare against the combined
	// expected sum.
	s := testSampler()
	y1 := mkVar(t, dist.Normal{}, 5, 1)
	y2 := mkVar(t, dist.Normal{}, 50, 1)
	mk := func(v *expr.Variable) *ctable.Table {
		tb := ctable.New("t", "v")
		tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(v))))
		return tb
	}
	r1, err := s.ExpectedSum(mk(y1), 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.ExpectedSum(mk(y2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Value-5) > 0.2 || math.Abs(r2.Value-50) > 0.2 {
		t.Fatalf("group sums %v, %v", r1.Value, r2.Value)
	}
}

func TestNullTargetContributesZero(t *testing.T) {
	s := testSampler()
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Null()))
	tb.MustAppend(ctable.NewTuple(ctable.Float(5)))
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 5 {
		t.Fatalf("sum with NULL = %v", r.Value)
	}
}

func TestNonNumericTargetErrors(t *testing.T) {
	s := testSampler()
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.String_("oops")))
	if _, err := s.ExpectedSum(tb, 0); err == nil {
		t.Fatal("string sum target accepted")
	}
	if _, err := s.ExpectedSum(tb, 3); err == nil {
		t.Fatal("out-of-range column accepted")
	}
}

func TestUnsatisfiableRowContributesZero(t *testing.T) {
	s := testSampler()
	y := mkVar(t, dist.Exponential{}, 1)
	tb := ctable.New("t", "v")
	tup := ctable.NewTuple(ctable.Float(100))
	tup.Cond = cond.FromClause(cond.Clause{atom(expr.NewVar(y), cond.LT, expr.Const(-1))})
	tb.MustAppend(tup)
	tb.MustAppend(ctable.NewTuple(ctable.Float(7)))
	r, err := s.ExpectedSum(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != 7 {
		t.Fatalf("sum = %v, want 7", r.Value)
	}
}
