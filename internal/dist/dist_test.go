package dist

import (
	"math"
	"testing"

	"pip/internal/prng"
)

// univariateCases lists every registered univariate class with valid
// example parameters, used by the table-driven capability tests below.
var univariateCases = []struct {
	name   string
	class  Class
	params []float64
}{
	{"Normal", Normal{}, []float64{3, 2}},
	{"Uniform", Uniform{}, []float64{-1, 4}},
	{"Exponential", Exponential{}, []float64{0.5}},
	{"Lognormal", Lognormal{}, []float64{0.25, 0.5}},
	{"Gamma", Gamma{}, []float64{2.5, 1.5}},
	{"Beta", Beta{}, []float64{2, 5}},
	{"Poisson", Poisson{}, []float64{6}},
	{"Bernoulli", Bernoulli{}, []float64{0.3}},
	{"DiscreteUniform", DiscreteUniform{}, []float64{2, 11}},
	{"Categorical", Categorical{}, []float64{0.2, 0.5, 0.3}},
}

func TestRegistryCoversAllNames(t *testing.T) {
	names := Names()
	if len(names) < 9 {
		t.Fatalf("registry has %d classes, want >= 9: %v", len(names), names)
	}
	for _, n := range names {
		c, ok := Lookup(n)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup misses it", n)
		}
		if c.Name() != n {
			t.Fatalf("class registered as %q reports Name() %q", n, c.Name())
		}
	}
	// Case-insensitive lookup is what the SQL layer relies on.
	if _, ok := Lookup("normal"); !ok {
		t.Fatal("lowercase lookup failed")
	}
	if _, ok := Lookup("NORMAL"); !ok {
		t.Fatal("uppercase lookup failed")
	}
	if _, ok := Lookup("NoSuchClass"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestEveryNamedClassIsCreatable(t *testing.T) {
	// Valid parameters per registered name; keep in sync with the registry.
	params := map[string][]float64{
		"MVNormal": MVNormalParams([]float64{0, 0}, [][]float64{{1, 0}, {0, 1}}),
	}
	for _, c := range univariateCases {
		params[c.name] = c.params
	}
	for _, n := range Names() {
		p, ok := params[n]
		if !ok {
			t.Fatalf("no test parameters for registered class %q", n)
		}
		class, _ := Lookup(n)
		in, err := NewInstance(class, p...)
		if err != nil {
			t.Fatalf("NewInstance(%s): %v", n, err)
		}
		v := in.Generate(prng.New(1))
		if math.IsNaN(v) {
			t.Fatalf("%s generated NaN", n)
		}
	}
}

func TestCheckParamsRejectsBadParams(t *testing.T) {
	bad := []struct {
		class  Class
		params []float64
	}{
		{Normal{}, []float64{0}},     // arity
		{Normal{}, []float64{0, 0}},  // sigma = 0
		{Normal{}, []float64{0, -1}}, // sigma < 0
		{Normal{}, []float64{math.NaN(), 1}},
		{Uniform{}, []float64{2, 2}},           // empty interval
		{Uniform{}, []float64{3, 1}},           // inverted
		{Exponential{}, []float64{0}},          // rate = 0
		{Exponential{}, []float64{}},           // arity
		{Lognormal{}, []float64{0, 0}},         // sigma = 0
		{Gamma{}, []float64{0, 1}},             // shape = 0
		{Gamma{}, []float64{1, 0}},             // rate = 0
		{Beta{}, []float64{0, 1}},              // alpha = 0
		{Poisson{}, []float64{0}},              // lambda = 0
		{Bernoulli{}, []float64{1.5}},          // p > 1
		{Bernoulli{}, []float64{-0.1}},         // p < 0
		{DiscreteUniform{}, []float64{0.5, 2}}, // non-integer bound
		{DiscreteUniform{}, []float64{5, 2}},   // inverted
		{Categorical{}, []float64{}},           // no weights
		{Categorical{}, []float64{0, 0}},       // zero total
		{Categorical{}, []float64{1, -1}},      // negative weight
		{MVNormal{}, []float64{2, 0, 0, 1}},    // truncated vector
	}
	for _, c := range bad {
		if _, err := NewInstance(c.class, c.params...); err == nil {
			t.Errorf("%s%v: bad parameters accepted", c.class.Name(), c.params)
		}
	}
}

// TestCDFInvCDFRoundTrip: for every class exposing both capabilities,
// InvCDF(CDF) must be the identity on continuous supports and the
// generalized inverse (smallest support point with CDF >= u) on discrete
// ones.
func TestCDFInvCDFRoundTrip(t *testing.T) {
	quantiles := []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		_, hasCDF := c.class.(CDFer)
		_, hasInv := c.class.(InvCDFer)
		if !hasCDF || !hasInv {
			t.Errorf("%s: expected full CDF/InvCDF capability", c.name)
			continue
		}
		for _, u := range quantiles {
			x, _ := in.InvCDF(u)
			v, _ := in.CDF(x)
			if in.Discrete() || c.name == "Poisson" {
				// Generalized inverse: CDF(x) >= u and CDF(x-1) < u.
				if v < u-1e-12 {
					t.Errorf("%s: CDF(InvCDF(%g)) = %g < u", c.name, u, v)
				}
				if prev, _ := in.CDF(x - 1); prev >= u && x > 0 {
					t.Errorf("%s: InvCDF(%g) = %g is not minimal (CDF(x-1) = %g)",
						c.name, u, x, prev)
				}
				continue
			}
			if math.Abs(v-u) > 1e-9 {
				t.Errorf("%s: CDF(InvCDF(%g)) = %g, drift %g", c.name, u, v, math.Abs(v-u))
			}
		}
	}
}

// TestMomentsMatchSampleEstimates: closed-form mean/variance must agree
// with 10k-sample estimates under a fixed seed within 5 standard errors.
func TestMomentsMatchSampleEstimates(t *testing.T) {
	const n = 10000
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		mean, okM := in.Mean()
		variance, okV := in.Variance()
		if !okM || !okV {
			t.Errorf("%s: expected closed-form mean and variance", c.name)
			continue
		}
		r := prng.NewKeyed(0xD157, 42)
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := in.Generate(r)
			sum += v
			sumSq += v * v
		}
		m := sum / n
		v := sumSq/n - m*m
		se := math.Sqrt(variance / n)
		if math.Abs(m-mean) > 5*se+1e-12 {
			t.Errorf("%s: sample mean %g vs closed form %g (se %g)", c.name, m, mean, se)
		}
		// Variance estimator tolerance: loose relative bound; heavy-tailed
		// classes (Lognormal) wander more.
		if math.Abs(v-variance) > 0.2*variance+5*se {
			t.Errorf("%s: sample variance %g vs closed form %g", c.name, v, variance)
		}
	}
}

// TestCDFMatchesEmpirical cross-validates each analytic CDF against the
// empirical CDF of its own sampler (a coarse Kolmogorov–Smirnov check, cf.
// density-estimation validation).
func TestCDFMatchesEmpirical(t *testing.T) {
	const n = 20000
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		r := prng.NewKeyed(0xCDF, 7)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = in.Generate(r)
		}
		for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			x, _ := in.InvCDF(u)
			want, _ := in.CDF(x)
			got := 0.0
			for _, s := range samples {
				if s <= x {
					got++
				}
			}
			got /= n
			// KS-style tolerance ~ 5/sqrt(n) plus slack for discrete steps.
			if math.Abs(got-want) > 5/math.Sqrt(n)+1e-3 {
				t.Errorf("%s: empirical CDF(%g) = %g vs analytic %g", c.name, x, got, want)
			}
		}
	}
}

// TestDeterminism: equal seeds must give bit-identical draws, and distinct
// seeds distinct streams — the contract the whole consistent-sampling
// scheme (paper §III-B) rests on.
func TestDeterminism(t *testing.T) {
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		a := prng.NewKeyed(11, 22, 33)
		b := prng.NewKeyed(11, 22, 33)
		other := prng.NewKeyed(11, 22, 34)
		diverged := false
		for i := 0; i < 100; i++ {
			va, vb := in.Generate(a), in.Generate(b)
			if va != vb {
				t.Fatalf("%s: same seed diverged at draw %d: %v vs %v", c.name, i, va, vb)
			}
			if va != in.Generate(other) {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%s: different seeds produced identical 100-draw streams", c.name)
		}
	}
	// Joint draws are deterministic too.
	l, err := CholeskyFromCovariance([][]float64{{2, 0.3}, {0.3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	in := MustInstance(MVNormal{}, MVNormalParams([]float64{1, -1}, l)...)
	mv := in.Class.(Multivariater)
	va := mv.GenerateJoint(in.Params, prng.NewKeyed(5, 6))
	vb := mv.GenerateJoint(in.Params, prng.NewKeyed(5, 6))
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("MVNormal joint draw diverged: %v vs %v", va, vb)
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integral of the PDF over [q10, q90] must match the CDF
	// mass of the interval for continuous classes.
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		if in.Discrete() || c.name == "Poisson" {
			continue
		}
		lo, _ := in.InvCDF(0.1)
		hi, _ := in.InvCDF(0.9)
		const steps = 20000
		h := (hi - lo) / steps
		integral := 0.0
		for i := 0; i <= steps; i++ {
			p, ok := in.PDF(lo + float64(i)*h)
			if !ok {
				t.Fatalf("%s: no PDF", c.name)
			}
			w := h
			if i == 0 || i == steps {
				w = h / 2
			}
			integral += p * w
		}
		cLo, _ := in.CDF(lo)
		cHi, _ := in.CDF(hi)
		if math.Abs(integral-(cHi-cLo)) > 1e-4 {
			t.Errorf("%s: integral(PDF) = %g vs CDF mass %g", c.name, integral, cHi-cLo)
		}
	}
}

func TestIntegerValuedCapability(t *testing.T) {
	integer := map[string]bool{
		"Poisson": true, "Bernoulli": true, "DiscreteUniform": true, "Categorical": true,
	}
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		if got, want := in.IntegerValued(), integer[c.name]; got != want {
			t.Errorf("%s: IntegerValued() = %v, want %v", c.name, got, want)
		}
		// Discrete (finite-support) classes must all be integer-valued in
		// this engine; Poisson is integer-valued without being Discrete.
		if in.Discrete() && !in.IntegerValued() {
			t.Errorf("%s: Discrete but not IntegerValued", c.name)
		}
	}
	// A Discreter-only extension class (no IntegerValued method) still
	// reports integer-valued via the Discrete fallback.
	if !(Instance{Class: discreteOnlyClass{}}).IntegerValued() {
		t.Error("Discreter-only class not treated as integer-valued")
	}
}

type discreteOnlyClass struct {
	generateOnlyClass
}

func (discreteOnlyClass) Discrete([]float64) bool { return true }

func TestDiscretePMFSumsToOne(t *testing.T) {
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		if !in.Discrete() {
			continue
		}
		lo, hi := in.Support()
		total := 0.0
		for x := lo; x <= hi; x++ {
			p, _ := in.PDF(x)
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("%s: pmf sums to %g", c.name, total)
		}
	}
}

func TestSupportContainsSamples(t *testing.T) {
	for _, c := range univariateCases {
		in := MustInstance(c.class, c.params...)
		lo, hi := in.Support()
		r := prng.NewKeyed(77, 88)
		for i := 0; i < 1000; i++ {
			v := in.Generate(r)
			if v < lo || v > hi {
				t.Fatalf("%s: sample %g outside declared support [%g, %g]", c.name, v, lo, hi)
			}
		}
	}
}

func TestMVNormalJointCorrelation(t *testing.T) {
	// cov = [[1, 0.8], [0.8, 1]]; component draws must reproduce it.
	l, err := CholeskyFromCovariance([][]float64{{1, 0.8}, {0.8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	params := MVNormalParams([]float64{2, -3}, l)
	in := MustInstance(MVNormal{}, params...)
	mv, ok := in.Class.(Multivariater)
	if !ok {
		t.Fatal("MVNormal does not implement Multivariater")
	}
	if got := mv.Dim(params); got != 2 {
		t.Fatalf("Dim = %d, want 2", got)
	}
	const n = 30000
	r := prng.NewKeyed(3, 1, 4)
	var sx, sy, sxy float64
	for i := 0; i < n; i++ {
		v := mv.GenerateJoint(params, r)
		sx += v[0]
		sy += v[1]
		sxy += v[0] * v[1]
	}
	mx, my := sx/n, sy/n
	cov := sxy/n - mx*my
	if math.Abs(mx-2) > 0.05 || math.Abs(my+3) > 0.05 {
		t.Fatalf("joint means drifted: %g, %g", mx, my)
	}
	if math.Abs(cov-0.8) > 0.05 {
		t.Fatalf("joint covariance %g, want 0.8", cov)
	}
}

func TestCholeskyFromCovariance(t *testing.T) {
	cov := [][]float64{{4, 2, 0.6}, {2, 2, 0.5}, {0.6, 0.5, 1}}
	l, err := CholeskyFromCovariance(cov)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct L Lᵀ.
	n := len(cov)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := 0.0
			for k := 0; k < n; k++ {
				got += l[i][k] * l[j][k]
			}
			if math.Abs(got-cov[i][j]) > 1e-12 {
				t.Fatalf("L Lᵀ[%d][%d] = %g, want %g", i, j, got, cov[i][j])
			}
		}
	}
	// Error paths.
	if _, err := CholeskyFromCovariance(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := CholeskyFromCovariance([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	if _, err := CholeskyFromCovariance([][]float64{{1, 2}, {2, 1}}); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
	if _, err := CholeskyFromCovariance([][]float64{{1, 0}}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}

func TestInstanceString(t *testing.T) {
	in := MustInstance(Normal{}, 0, 1)
	if got := in.String(); got != "Normal(0, 1)" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Instance{}).String(); got != "<nil dist>" {
		t.Fatalf("zero Instance String() = %q", got)
	}
}

func TestInstanceCapabilityFallbacks(t *testing.T) {
	// An Instance over a Generate-only class degrades gracefully.
	in := Instance{Class: generateOnlyClass{}}
	if _, ok := in.PDF(0); ok {
		t.Fatal("PDF reported available")
	}
	if _, ok := in.CDF(0); ok {
		t.Fatal("CDF reported available")
	}
	if _, ok := in.InvCDF(0.5); ok {
		t.Fatal("InvCDF reported available")
	}
	if _, ok := in.Mean(); ok {
		t.Fatal("Mean reported available")
	}
	if _, ok := in.Variance(); ok {
		t.Fatal("Variance reported available")
	}
	if lo, hi := in.Support(); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("default support [%g, %g], want whole line", lo, hi)
	}
	if in.Discrete() {
		t.Fatal("default Discrete() = true")
	}
}

type generateOnlyClass struct{}

func (generateOnlyClass) Name() string                { return "GenOnly" }
func (generateOnlyClass) CheckParams([]float64) error { return nil }
func (generateOnlyClass) Generate(_ []float64, r *prng.Rand) float64 {
	return r.Float64()
}
