package sampler

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
)

// Tests of the spread closed form (exactSpread): E[stddev] and E[variance]
// of a group of certain rows whose cells are linear in Gaussian variables,
// against textbook truths, against the world-sampled path it replaces, and
// on the shapes it must decline.

// spreadVar returns a fresh univariate Normal.
func spreadVar(id uint64, mu, sd float64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(dist.Normal{}, mu, sd)}
}

// spreadTable builds a one-column table of certain rows.
func spreadTable(cells ...ctable.Value) *ctable.Table {
	tb := ctable.New("spread", "v")
	for _, c := range cells {
		tb.MustAppend(ctable.NewTuple(c))
	}
	return tb
}

// exactSpreadOf runs ExpectedSpread with the closed forms on and requires an
// exact answer with one closed-form hit and no samples.
func exactSpreadOf(t *testing.T, tb *ctable.Table, variance bool) float64 {
	t.Helper()
	st := &obs.SamplerStats{}
	r, err := New(DefaultConfig()).WithStats(st).ExpectedSpread(tb, 0, variance)
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	if !r.Exact || r.N != 0 || snap.Samples != 0 || snap.ClosedFormHits != 1 {
		t.Fatalf("not answered exactly: %+v, samples=%d closed_form_hits=%d", r, snap.Samples, snap.ClosedFormHits)
	}
	return r.Value
}

// chiMean is E[S] for n iid N(μ, σ²) rows: n·S²/σ² ~ χ²ₙ₋₁, so
// E[S] = σ·√(2/n)·Γ(n/2)/Γ((n−1)/2).
func chiMean(n int, sigma float64) float64 {
	a, _ := math.Lgamma(float64(n) / 2)
	b, _ := math.Lgamma(float64(n-1) / 2)
	return sigma * math.Sqrt(2/float64(n)) * math.Exp(a-b)
}

// foldedMean is E|D|/2 for D ~ N(μ, σ²): the stddev of a two-row group
// whose difference is D.
func foldedMean(mu, sigma float64) float64 {
	return (sigma*math.Sqrt(2/math.Pi)*math.Exp(-mu*mu/(2*sigma*sigma)) + mu*math.Erf(mu/(sigma*math.Sqrt2))) / 2
}

func TestClosedformSpreadChiTruth(t *testing.T) {
	const mu, sigma = 7.5, 2.25
	for _, n := range []int{2, 3, 7, 20, spreadCap} {
		cells := make([]ctable.Value, n)
		for i := range cells {
			cells[i] = ctable.Symbolic(expr.NewVar(spreadVar(uint64(i+1), mu, sigma)))
		}
		tb := spreadTable(cells...)
		if got, want := exactSpreadOf(t, tb, false), chiMean(n, sigma); !closeRel(got, want, 1e-12) {
			t.Errorf("n=%d: E[S] = %.17g, χ truth %.17g (rel %.1e)", n, got, want, math.Abs(got-want)/want)
		}
		if got, want := exactSpreadOf(t, tb, true), sigma*sigma*float64(n-1)/float64(n); !closeRel(got, want, 1e-12) {
			t.Errorf("n=%d: E[S²] = %.17g, truth %.17g", n, got, want)
		}
	}
}

func TestClosedformSpreadFoldedNormal(t *testing.T) {
	for _, c := range []struct{ m1, s1, m2, s2 float64 }{
		{0, 1, 0, 1}, {3, 1, -1, 2}, {10, 0.5, 9, 0.25}, {-4, 3, 40, 1},
	} {
		tb := spreadTable(ctable.Symbolic(expr.NewVar(spreadVar(1, c.m1, c.s1))), ctable.Symbolic(expr.NewVar(spreadVar(2, c.m2, c.s2))))
		want := foldedMean(c.m1-c.m2, math.Hypot(c.s1, c.s2))
		if got := exactSpreadOf(t, tb, false); !closeRel(got, want, 1e-12) {
			t.Errorf("%+v: E[S] = %.17g, folded-normal truth %.17g (rel %.1e)", c, got, want, math.Abs(got-want)/want)
		}
	}
	// A constant row beside a Normal one: D = Y − c.
	tb := spreadTable(ctable.Float(4), ctable.Symbolic(expr.NewVar(spreadVar(1, 5, 2))))
	if got, want := exactSpreadOf(t, tb, false), foldedMean(1, 2); !closeRel(got, want, 1e-12) {
		t.Errorf("constant beside Normal: E[S] = %.17g, want %.17g", got, want)
	}
	// Two constants beside a Normal: 3·S² = (c₁−c₂)²/2 + (2/3)(Y − (c₁+c₂)/2)²,
	// so part of the spread (κ) moves with no variable. The truth integrates
	// √(3·S²/3) against Y's density by a fine trapezoid rule.
	const c1, c2, mu, sd = 0, 10, 8, 3
	tb = spreadTable(ctable.Float(c1), ctable.Float(c2), ctable.Symbolic(expr.NewVar(spreadVar(1, mu, sd))))
	want := 0.0
	const dz = 1e-3
	for z := -12.0; z <= 12; z += dz {
		y := mu + sd*z - (c1+c2)/2.0
		want += math.Sqrt(((c1-c2)*(c1-c2)/2.0+2.0/3*y*y)/3) * stdNormalPDF(z) * dz
	}
	if got := exactSpreadOf(t, tb, false); !closeRel(got, want, 1e-12) {
		t.Errorf("two constants beside Normal: E[S] = %.17g, want %.17g", got, want)
	}
}

func TestClosedformSpreadConstants(t *testing.T) {
	f := ctable.Float
	cases := []struct {
		name          string
		tb            *ctable.Table
		stddev, varnc float64
	}{
		{"ten-twenty", spreadTable(f(10), f(20)), 5, 25},
		{"ints-and-bools", spreadTable(ctable.Int(1), ctable.Bool(true), ctable.Int(3), ctable.Bool(false)), math.Sqrt(1.1875), 1.1875},
		{"offset", spreadTable(f(1e9), f(1e9+1), f(1e9+2)), math.Sqrt(2.0 / 3), 2.0 / 3},
		{"one-row", spreadTable(f(7)), 0, 0},
		{"empty", spreadTable(), 0, 0},
		{"symbolic-constant", spreadTable(ctable.Symbolic(expr.Add(expr.Const(1), expr.Const(2))), f(5)), 1, 1},
	}
	for _, c := range cases {
		if got := exactSpreadOf(t, c.tb, false); !closeRel(got, c.stddev, 1e-15) {
			t.Errorf("%s: E[S] = %.17g, want %.17g", c.name, got, c.stddev)
		}
		if got := exactSpreadOf(t, c.tb, true); !closeRel(got, c.varnc, 1e-15) {
			t.Errorf("%s: E[S²] = %.17g, want %.17g", c.name, got, c.varnc)
		}
	}
}

// TestClosedformSpreadSharedVariable: rows X and X + c move together, so
// their spread is the constant |c|/2 whatever X's variance.
func TestClosedformSpreadSharedVariable(t *testing.T) {
	x := expr.NewVar(spreadVar(1, 3, 1e3))
	for _, c := range []float64{1, -2.5, 1e-3} {
		tb := spreadTable(ctable.Symbolic(x), ctable.Symbolic(expr.Add(x, expr.Const(c))))
		if got, want := exactSpreadOf(t, tb, false), math.Abs(c)/2; !closeRel(got, want, 1e-9) {
			t.Errorf("c=%g: E[S] = %.17g, want %.17g", c, got, want)
		}
		if got, want := exactSpreadOf(t, tb, true), c*c/4; !closeRel(got, want, 1e-9) {
			t.Errorf("c=%g: E[S²] = %.17g, want %.17g", c, got, want)
		}
	}
	// X − Y and Y − X share both variables: D = 2(X − Y).
	y := expr.NewVar(spreadVar(2, -1, 2))
	tb := spreadTable(ctable.Symbolic(expr.Sub(x, y)), ctable.Symbolic(expr.Sub(y, x)))
	if got, want := exactSpreadOf(t, tb, false), foldedMean(2*4, 2*math.Hypot(1e3, 2)); !closeRel(got, want, 1e-12) {
		t.Errorf("X−Y, Y−X: E[S] = %.17g, want %.17g", got, want)
	}
}

// spreadMV returns the components of one MVNormal with the given mean and
// covariance.
func spreadMV(t *testing.T, id uint64, mean []float64, cov [][]float64) []expr.Expr {
	t.Helper()
	chol, err := dist.CholeskyFromCovariance(cov)
	if err != nil {
		t.Fatal(err)
	}
	p := dist.MVNormalParams(mean, chol)
	out := make([]expr.Expr, len(mean))
	for i := range out {
		out[i] = expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: id, Subscript: i}, Dist: dist.MustInstance(dist.MVNormal{}, p...)})
	}
	return out
}

func TestClosedformSpreadMVNormal(t *testing.T) {
	mv := spreadMV(t, 9, []float64{1, -2, 0.5}, [][]float64{{4, 1.2, -0.6}, {1.2, 2, 0.3}, {-0.6, 0.3, 1}})
	// Two components: D = Y₀ − Y₁ ~ N(3, 4 + 2 − 2·1.2).
	tb := spreadTable(ctable.Symbolic(mv[0]), ctable.Symbolic(mv[1]))
	if got, want := exactSpreadOf(t, tb, false), foldedMean(3, math.Sqrt(3.6)); !closeRel(got, want, 1e-12) {
		t.Errorf("MVNormal pair: E[S] = %.17g, want %.17g", got, want)
	}
	// Three components: E[S²] = (1/n)·Σᵢ [Var(Yᵢ − Ȳ) + (mᵢ − m̄)²].
	tb = spreadTable(ctable.Symbolic(mv[0]), ctable.Symbolic(mv[1]), ctable.Symbolic(mv[2]))
	cov := [][]float64{{4, 1.2, -0.6}, {1.2, 2, 0.3}, {-0.6, 0.3, 1}}
	m := []float64{1, -2, 0.5}
	want := 0.0
	for i := 0; i < 3; i++ {
		// Yᵢ − Ȳ = Σⱼ wⱼYⱼ with wⱼ = [i = j] − 1/3.
		w := []float64{-1.0 / 3, -1.0 / 3, -1.0 / 3}
		w[i] += 1
		for j := range w {
			for k := range w {
				want += w[j] * w[k] * cov[j][k]
			}
		}
		d := m[i] - (m[0]+m[1]+m[2])/3
		want += d * d
	}
	want /= 3
	if got := exactSpreadOf(t, tb, true); !closeRel(got, want, 1e-12) {
		t.Errorf("MVNormal triple: E[S²] = %.17g, want %.17g", got, want)
	}
}

// randomSpreadGroup draws a group of 2–12 certain rows whose cells mix
// constants, independent Normals, MVNormal components and variables shared
// across rows, with random coefficients.
func randomSpreadGroup(rng *rand.Rand, nextID *uint64) *ctable.Table {
	var pool []expr.Expr
	for k := rng.IntN(3); k > 0; k-- {
		*nextID++
		pool = append(pool, expr.NewVar(spreadVar(*nextID, rng.Float64()*10-5, 0.2+rng.Float64()*3)))
	}
	if rng.IntN(2) == 0 {
		*nextID++
		d := 2 + rng.IntN(3)
		mean := make([]float64, d)
		chol := make([][]float64, d)
		for i := range chol {
			mean[i] = rng.Float64()*6 - 3
			chol[i] = make([]float64, d)
			for j := 0; j < i; j++ {
				chol[i][j] = rng.Float64()*2 - 1
			}
			chol[i][i] = 0.3 + rng.Float64()*1.5
		}
		p := dist.MVNormalParams(mean, chol)
		for i := 0; i < d; i++ {
			pool = append(pool, expr.NewVar(&expr.Variable{Key: expr.VarKey{ID: *nextID, Subscript: i}, Dist: dist.MustInstance(dist.MVNormal{}, p...)}))
		}
	}
	n := 2 + rng.IntN(11)
	cells := make([]ctable.Value, n)
	for i := range cells {
		c0 := rng.Float64()*8 - 4
		switch rng.IntN(4) {
		case 0:
			cells[i] = ctable.Float(c0)
			continue
		case 1:
			*nextID++
			cells[i] = ctable.Symbolic(expr.Add(expr.Const(c0), expr.NewVar(spreadVar(*nextID, rng.Float64()*4-2, 0.1+rng.Float64()*2))))
			continue
		}
		if len(pool) == 0 {
			cells[i] = ctable.Float(c0)
			continue
		}
		var e expr.Expr = expr.Const(c0)
		for k := 1 + rng.IntN(2); k > 0; k-- {
			e = expr.Add(e, expr.Mul(expr.Const(rng.Float64()*4-2), pool[rng.IntN(len(pool))]))
		}
		cells[i] = ctable.Symbolic(e)
	}
	return spreadTable(cells...)
}

// TestClosedformSpreadDifferential: over random groups, the exact answers
// land within four standard errors of 200 000 sampled worlds.
func TestClosedformSpreadDifferential(t *testing.T) {
	const worlds = 200000
	rng := rand.New(rand.NewPCG(30, 7))
	cfg := DefaultConfig()
	cfg.WorldSeed = 307
	cfg.DisableClosedForm = true
	sampled := New(cfg)
	nextID := uint64(1000)
	for g := 0; g < 40; g++ {
		tb := randomSpreadGroup(rng, &nextID)
		t.Run(fmt.Sprintf("group%02d-n%d", g, tb.Len()), func(t *testing.T) {
			// One set of worlds serves both: StdDevFold is √VarianceFold.
			hist, err := sampled.AggregateHistogram(tb, 0, VarianceFold, worlds)
			if err != nil {
				t.Fatal(err)
			}
			sd := make([]float64, len(hist))
			for i, v := range hist {
				sd[i] = math.Sqrt(v)
			}
			for _, c := range []struct {
				variance bool
				vals     []float64
			}{{false, sd}, {true, hist}} {
				want := exactSpreadOf(t, tb, c.variance)
				mean := SumFold(c.vals) / worlds
				ss := 0.0
				for _, v := range c.vals {
					ss += (v - mean) * (v - mean)
				}
				se := math.Sqrt(ss/(worlds-1)) / math.Sqrt(worlds)
				if math.Abs(mean-want) > 4*se+1e-12*math.Abs(want) {
					t.Errorf("variance=%v: exact %.10g, sampled %.10g ± %.2g: %.1f standard errors apart",
						c.variance, want, mean, se, math.Abs(mean-want)/se)
				}
			}
		})
	}
}

// TestClosedformSpreadDeclines: shapes outside the closed form give exactly
// the bits of the world-sampled path (DisableClosedForm), draw samples and
// count no closed-form hit.
func TestClosedformSpreadDeclines(t *testing.T) {
	x := spreadVar(1, 2, 1)
	y := spreadVar(2, -1, 0.5)
	e := &expr.Variable{Key: expr.VarKey{ID: 3}, Dist: dist.MustInstance(dist.Exponential{}, 0.5)}
	X, Y, E := expr.NewVar(x), expr.NewVar(y), expr.NewVar(e)
	maybe := spreadTable(ctable.Symbolic(X), ctable.Symbolic(Y))
	maybe.Tuples[1].Cond = cond.FromClause(cond.Clause{cond.NewAtom(Y, cond.GT, expr.Const(-1))})
	big := make([]ctable.Value, spreadCap+1)
	for i := range big {
		big[i] = ctable.Symbolic(expr.NewVar(spreadVar(uint64(100+i), float64(i%5), 1)))
	}
	cases := []struct {
		name string
		tb   *ctable.Table
	}{
		{"probabilistic-condition", maybe},
		{"exponential-cell", spreadTable(ctable.Symbolic(X), ctable.Symbolic(E))},
		{"product-cell", spreadTable(ctable.Symbolic(expr.Mul(X, Y)), ctable.Symbolic(Y))},
		{"over-cap", spreadTable(big...)},
	}
	cfg := DefaultConfig()
	cfg.WorldSeed = 11
	cfg.FixedSamples = 300
	off := cfg
	off.DisableClosedForm = true
	for _, c := range cases {
		for _, variance := range []bool{false, true} {
			st := &obs.SamplerStats{}
			got, err := New(cfg).WithStats(st).ExpectedSpread(c.tb, 0, variance)
			if err != nil {
				t.Fatal(err)
			}
			want, err := New(off).ExpectedSpread(c.tb, 0, variance)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Exact || got.N != 300 {
				t.Errorf("%s variance=%v: %+v, want the sampled %+v", c.name, variance, got, want)
			}
			if snap := st.Snapshot(); snap.ClosedFormHits != 0 || snap.Samples != 300 {
				t.Errorf("%s variance=%v: closed_form_hits=%d samples=%d, want 0 and 300", c.name, variance, snap.ClosedFormHits, snap.Samples)
			}
		}
	}
	// A NULL cell keeps the sampled path's error.
	if _, err := New(cfg).ExpectedSpread(spreadTable(ctable.Float(1), ctable.Null()), 0, false); err == nil {
		t.Error("NULL cell: no error")
	}
}

// BenchmarkExpectedSpread times one group of n rows shaped like the
// benchmark's manuf + ship (a sum of two independent Normals of varied
// spread) answered exactly and by the 1 000-world fallback, on one worker.
// The crossing of the two sets spreadCap.
func BenchmarkExpectedSpread(b *testing.B) {
	for _, n := range []int{4, 10, spreadCap} {
		cells := make([]ctable.Value, n)
		for i := range cells {
			manuf := spreadVar(uint64(2*i+1), float64(i%6), 0.5+0.25*float64(i%7))
			ship := spreadVar(uint64(2*i+2), 3, 0.2+0.1*float64(i%5))
			cells[i] = ctable.Symbolic(expr.Add(expr.NewVar(manuf), expr.NewVar(ship)))
		}
		tb := spreadTable(cells...)
		for _, exact := range []bool{true, false} {
			cfg := DefaultConfig()
			cfg.Workers = 1
			cfg.DisableClosedForm = !exact
			s := New(cfg)
			name := "sampled"
			if exact {
				name = "exact"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if r, err := s.ExpectedSpread(tb, 0, false); err != nil || r.Exact != exact {
						b.Fatalf("%+v %v", r, err)
					}
				}
			})
		}
	}
}
