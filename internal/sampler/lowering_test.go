package sampler

import (
	"math"
	"math/rand/v2"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
)

// Tests of the exact answers' two shared decisions: how a clause of atoms
// bounds one linear form (reduceAtoms) and how Gaussian moments of linear
// forms are built (gaussLower).

// TestClosedformSingleVarDifferential pins the single-variable exact path
// against truths computed without it. Each case bounds one variable of a
// CDF class with one to four atoms: every operator, thresholds on and
// between the integers, atoms scaled by a coefficient of either sign or
// with the sides swapped, pins that may conflict, and <> on support points.
// For an integer-valued class the truth is the mass of the support points
// where the clause holds, by evaluating its atoms; for a continuous class it
// is a CDF difference over the bounds the atoms state. Half the scales are
// dyadic, so a scaled atom names exactly the threshold it was built from;
// the other half are not, so r·t rounds and the quotient the reducer takes
// can land an ulp off an integer the atom, as evaluated, still decides.
func TestClosedformSingleVarDifferential(t *testing.T) {
	classes := []struct {
		class   dist.Class
		params  []float64
		support []float64 // nil for a continuous class
		lo, hi  int       // thresholds are drawn from [lo, hi] in steps of ½
	}{
		{dist.Normal{}, []float64{1, 2}, nil, -4, 6},
		{dist.Exponential{}, []float64{0.5}, nil, -1, 6},
		{dist.Uniform{}, []float64{0, 4}, nil, -1, 5},
		{dist.Poisson{}, []float64{3}, seq(0, 60), -1, 9},
		{dist.Bernoulli{}, []float64{0.3}, seq(0, 1), -1, 2},
		{dist.DiscreteUniform{}, []float64{1, 6}, seq(1, 6), 0, 7},
		{dist.Categorical{}, []float64{0.2, 0.5, 0.3}, seq(0, 2), -1, 3},
	}
	ops := []cond.CmpOp{cond.GT, cond.GE, cond.LT, cond.LE, cond.EQ, cond.NEQ}
	scales := []float64{2, 0.5, 1.5, 4, 0.25, 3, 0.7, 1.3, 2.9, 0.1, 3.3}
	rng := rand.New(rand.NewPCG(34, 1))
	s := New(DefaultConfig())
	for ci, c := range classes {
		v := &expr.Variable{Key: expr.VarKey{ID: uint64(900 + ci)}, Dist: dist.MustInstance(c.class, c.params...)}
		x := expr.NewVar(v)
		for i := 0; i < 300; i++ {
			var clause cond.Clause
			var stated []struct {
				op cond.CmpOp
				t  float64
			}
			for n := 1 + rng.IntN(4); n > 0; n-- {
				op := ops[rng.IntN(len(ops))]
				th := float64(c.lo) + 0.5*float64(rng.IntN(2*(c.hi-c.lo)+1))
				stated = append(stated, struct {
					op cond.CmpOp
					t  float64
				}{op, th})
				switch rng.IntN(3) {
				case 0:
					clause = append(clause, cond.NewAtom(x, op, expr.Const(th)))
				case 1:
					r := scales[rng.IntN(len(scales))] * float64(1-2*rng.IntN(2))
					rop := op
					if r < 0 {
						rop = flipForNegation(op)
					}
					clause = append(clause, cond.NewAtom(expr.Mul(expr.Const(r), x), rop, expr.Const(r*th)))
				default:
					clause = append(clause, cond.NewAtom(expr.Const(th), flipForNegation(op), x))
				}
			}
			want := 0.0
			if c.support != nil {
				for _, pt := range c.support {
					if clause.Holds(expr.Assignment{v.Key: pt}) {
						m, _ := v.Dist.PDF(pt)
						want += m
					}
				}
			} else {
				lo, hi, pinned := math.Inf(-1), math.Inf(1), false
				for _, a := range stated {
					switch a.op {
					case cond.GT, cond.GE:
						lo = math.Max(lo, a.t)
					case cond.LT, cond.LE:
						hi = math.Min(hi, a.t)
					case cond.EQ:
						pinned = true
					}
				}
				if !pinned && lo < hi {
					a, _ := v.Dist.CDF(lo)
					b, _ := v.Dist.CDF(hi)
					want = b - a
				}
			}
			r := s.Conf(clause)
			if !r.Exact || math.Abs(r.Prob-want) > 1e-12 {
				t.Fatalf("%s case %d: Conf(%v) = %.17g exact=%v, want %.17g", c.class.Name(), i, clause, r.Prob, r.Exact, want)
			}
		}
	}
}

// seq returns the integers lo..hi as floats.
func seq(lo, hi int) []float64 {
	out := make([]float64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		out = append(out, float64(k))
	}
	return out
}

// TestConfNaNAtomIsFalse: every comparison with NaN is false except <>, so a
// clause with such an atom has probability 0 and an unsatisfiable context,
// on the closed forms and on the sampled path alike; X <> NaN always holds.
func TestConfNaNAtomIsFalse(t *testing.T) {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 10, 2)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 8, 1.5)}
	X, Y := expr.NewVar(x), expr.NewVar(y)
	nan := expr.Const(math.NaN())
	for _, closedForm := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.DisableClosedForm = !closedForm
		cfg.FixedSamples = 200
		cfg.RejectionCap = 1000 // a sampled NaN atom never holds: give up early
		s := New(cfg)
		for _, c := range []cond.Clause{
			{cond.NewAtom(X, cond.GT, nan)},
			{cond.NewAtom(expr.Add(X, Y), cond.GT, nan)},
			{cond.NewAtom(nan, cond.LE, expr.Add(X, Y))},
			{cond.NewAtom(expr.Mul(X, Y), cond.GT, nan)},
		} {
			if r := s.Conf(c); r.Err != nil || r.Prob != 0 {
				t.Errorf("closed forms %v: Conf(%v) = %v (err %v), want exactly 0", closedForm, c, r.Prob, r.Err)
			}
			if r := s.Expectation(X, c, true); r.Err != nil || r.Prob != 0 || !math.IsNaN(r.Mean) {
				t.Errorf("closed forms %v: E[X | %v] = %v P = %v (err %v), want NaN and 0", closedForm, c, r.Mean, r.Prob, r.Err)
			}
		}
		if r := s.Conf(cond.Clause{cond.NewAtom(X, cond.NEQ, nan)}); r.Prob != 1 {
			t.Errorf("closed forms %v: Conf(X <> NaN) = %v, want 1", closedForm, r.Prob)
		}
	}
}

// closedFormCalls are the four exact answers the lowering and the reducer
// serve, each shaped like a sampled-agg statement: a conf() over two
// Normals (the linear-Gaussian shortcut), a conditional mean, a
// single-variable interval on a Poisson, and the spread of ten rows.
func closedFormCalls() []struct {
	name string
	run  func(*Sampler) bool
} {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 10, 2)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 8, 1.5)}
	p := &expr.Variable{Key: expr.VarKey{ID: 3}, Dist: dist.MustInstance(dist.Poisson{}, 3)}
	X, Y, P := expr.NewVar(x), expr.NewVar(y), expr.NewVar(p)
	sum := cond.Clause{cond.NewAtom(expr.Add(X, Y), cond.GT, expr.Const(19))}
	band := cond.Clause{
		cond.NewAtom(expr.Add(X, Y), cond.GT, expr.Const(17)),
		cond.NewAtom(expr.Add(X, Y), cond.LT, expr.Const(21)),
	}
	interval := cond.Clause{
		cond.NewAtom(P, cond.GE, expr.Const(2)),
		cond.NewAtom(P, cond.LT, expr.Const(6)),
	}
	cells := make([]ctable.Value, 10)
	for i := range cells {
		manuf := spreadVar(uint64(2*i+11), float64(i%6), 0.5+0.25*float64(i%7))
		ship := spreadVar(uint64(2*i+12), 3, 0.2+0.1*float64(i%5))
		cells[i] = ctable.Symbolic(expr.Add(expr.NewVar(manuf), expr.NewVar(ship)))
	}
	tb := spreadTable(cells...)
	return []struct {
		name string
		run  func(*Sampler) bool
	}{
		{"two-normal-conf", func(s *Sampler) bool { return s.Conf(sum).Exact }},
		{"conditional-mean", func(s *Sampler) bool {
			return s.Expectation(expr.Sub(X, expr.Mul(expr.Const(2), Y)), band, true).Exact
		}},
		{"single-var-interval", func(s *Sampler) bool { return s.Conf(interval).Exact }},
		{"spread-n10", func(s *Sampler) bool {
			r, err := s.ExpectedSpread(tb, 0, false)
			return err == nil && r.Exact
		}},
	}
}

// TestClosedFormAllocs holds each exact answer to the allocations it made
// before the lowering and the reducer were shared.
func TestClosedFormAllocs(t *testing.T) {
	ceiling := map[string]float64{
		"two-normal-conf":     9,
		"conditional-mean":    64,
		"single-var-interval": 76,
		"spread-n10":          103,
	}
	s := New(DefaultConfig())
	for _, c := range closedFormCalls() {
		if !c.run(s) {
			t.Fatalf("%s: not answered exactly", c.name)
		}
		got := testing.AllocsPerRun(50, func() { c.run(s) })
		if got > ceiling[c.name] {
			t.Errorf("%s: %v allocations per call, ceiling %v", c.name, got, ceiling[c.name])
		}
	}
}

// BenchmarkClosedForm times the four exact answers of closedFormCalls.
func BenchmarkClosedForm(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	s := New(cfg)
	for _, c := range closedFormCalls() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.run(s) {
					b.Fatal("not answered exactly")
				}
			}
		})
	}
}
