package prng

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestKeyedDeterminism(t *testing.T) {
	a := NewKeyed(1, 2, 3)
	b := NewKeyed(1, 2, 3)
	c := NewKeyed(1, 2, 4)
	va, vb, vc := a.Float64(), b.Float64(), c.Float64()
	if va != vb {
		t.Fatalf("same key produced different values: %v vs %v", va, vb)
	}
	if va == vc {
		t.Fatalf("different keys produced identical values: %v", va)
	}
}

func TestMixKeySensitivity(t *testing.T) {
	// Nearby keys must decorrelate: flipping any single part changes the seed.
	base := MixKey(7, 8, 9)
	if MixKey(7, 8, 10) == base || MixKey(7, 9, 9) == base || MixKey(8, 8, 9) == base {
		t.Fatal("MixKey is insensitive to a key part")
	}
}

// TestReseedMatchesNewKeyed pins the value-type reseed path to the allocating
// one: a reused generator reseeded with a prefix-extended key must replay
// NewKeyed's stream exactly, for every draw after the reseed.
func TestReseedMatchesNewKeyed(t *testing.T) {
	var r Rand
	prefix := MixKey(11, 22, 33)
	for i := uint64(0); i < 50; i++ {
		want := NewKeyed(11, 22, 33, i, i*7)
		r.Reseed(Mix2(prefix, i, i*7))
		if Mix2(prefix, i, i*7) != Mix1(Mix1(prefix, i), i*7) {
			t.Fatal("Mix2 is not two Mix1 steps")
		}
		for j := 0; j < 3; j++ {
			if got, w := r.NormFloat64(), want.NormFloat64(); got != w {
				t.Fatalf("key %d draw %d: reseeded %v, NewKeyed %v", i, j, got, w)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64OpenRange(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		f := r.Float64Open()
		if f <= 0 || f >= 1 {
			t.Fatalf("Float64Open out of (0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) biased: count[%d] = %d", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(5).Intn(0)
}

// normDraw is the kernel's draw shape: reseed on a key, take one normal.
func normDraw(r *Rand, s, i uint64) float64 {
	r.Reseed(MixKey(s, i))
	return r.NormFloat64()
}

// TestNormFloat64Moments checks mean, variance, skewness and excess
// kurtosis of 2·10⁶ keyed draws against N(0, 1), each within four standard
// errors.
func TestNormFloat64Moments(t *testing.T) {
	const n = 2_000_000
	var r Rand
	var m1, m2, m3, m4 float64
	for i := uint64(0); i < n; i++ {
		x := normDraw(&r, 6, i)
		x2 := x * x
		m1 += x
		m2 += x2
		m3 += x2 * x
		m4 += x2 * x2
	}
	m1, m2, m3, m4 = m1/n, m2/n, m3/n, m4/n
	variance := m2 - m1*m1
	skew := (m3 - 3*m1*m2 + 2*m1*m1*m1) / math.Pow(variance, 1.5)
	kurt := (m4-4*m1*m3+6*m1*m1*m2-3*m1*m1*m1*m1)/(variance*variance) - 3
	for _, c := range []struct {
		name       string
		got, want  float64
		stdErrUnit float64 // standard error × √n
	}{
		{"mean", m1, 0, 1},
		{"variance", variance, 1, math.Sqrt(2)},
		{"skewness", skew, 0, math.Sqrt(6)},
		{"excess kurtosis", kurt, 0, math.Sqrt(24)},
	} {
		if se := c.stdErrUnit / math.Sqrt(n); math.Abs(c.got-c.want) > 4*se {
			t.Errorf("%s %.5g, want %g ± %.3g", c.name, c.got, c.want, 4*se)
		}
	}
}

// TestNormFloat64KS runs a one-sample Kolmogorov–Smirnov test of 2·10⁶
// draws keyed MixKey(s, i) against Φ for five streams s, and, over all of
// them, binomial bounds on the tail masses P(x > 3) and P(|x| > zigR) and a
// bound on the tail's shape: the mean excess E[|x| − zigR | |x| > zigR].
func TestNormFloat64KS(t *testing.T) {
	const n = 2_000_000
	var r Rand
	xs := make([]float64, n)
	var over3, overR, total int
	var excess, excessSq float64
	for _, s := range []uint64{1, 2, 3, 4, 5} {
		for i := range xs {
			x := normDraw(&r, s, uint64(i))
			xs[i] = x
			if x > 3 {
				over3++
			}
			if e := math.Abs(x) - zigR; e > 0 {
				overR++
				excess += e
				excessSq += e * e
			}
		}
		total += n
		slices.Sort(xs)
		d := 0.0
		for i, x := range xs {
			cdf := 0.5 * math.Erfc(-x/math.Sqrt2)
			d = math.Max(d, math.Max(float64(i+1)/n-cdf, cdf-float64(i)/n))
		}
		// 1.63 is the 1 % critical value of the limiting distribution.
		ks := d * math.Sqrt(n)
		t.Logf("stream %d: D·√n = %.3f", s, ks)
		if ks >= 1.63 {
			t.Errorf("stream %d: D·√n = %.3f ≥ 1.63", s, ks)
		}
	}
	for _, c := range []struct {
		name  string
		count int
		p     float64
	}{
		{"P(x > 3)", over3, 0.5 * math.Erfc(3/math.Sqrt2)},
		{"P(|x| > R)", overR, math.Erfc(zigR / math.Sqrt2)},
	} {
		mean := float64(total) * c.p
		sd := math.Sqrt(mean * (1 - c.p))
		t.Logf("%s: %d of %d draws, expected %.0f", c.name, c.count, total, mean)
		if math.Abs(float64(c.count)-mean) > 4*sd {
			t.Errorf("%s: %d of %d draws, want %.0f ± %.0f", c.name, c.count, total, mean, 4*sd)
		}
	}
	// The normal tail's mean excess is the inverse Mills ratio φ(R)/Q(R)
	// less R; an exponential tail without the acceptance test gives 1/R.
	phi := math.Exp(-zigR*zigR/2) / math.Sqrt(2*math.Pi)
	wantExcess := phi/(0.5*math.Erfc(zigR/math.Sqrt2)) - zigR
	m := excess / float64(overR)
	se := math.Sqrt((excessSq/float64(overR) - m*m) / float64(overR))
	t.Logf("tail mean excess %.4f, want %.4f", m, wantExcess)
	if math.Abs(m-wantExcess) > 4*se {
		t.Errorf("tail mean excess %.4f, want %.4f ± %.4f", m, wantExcess, 4*se)
	}
}

// TestNormFloat64Branches classifies each draw by the first word it reads
// and requires the fast path, the wedge and the tail each to run. A
// fast-path draw must be exactly u·zigX[i]; a tail draw must lie beyond
// zigR on u's side.
func TestNormFloat64Branches(t *testing.T) {
	var r Rand
	var fast, wedge, tail int
	for i := uint64(0); i < 200_000; i++ {
		r.Reseed(MixKey(7, i))
		peek := r
		b := peek.Uint64()
		layer := b & (zigLayers - 1)
		u := float64(int64(b)>>11) * 0x1p-52
		x := r.NormFloat64()
		switch {
		case math.Abs(u) < zigRatio[layer]:
			fast++
			if x != u*zigX[layer] {
				t.Fatalf("key %d: fast path drew %v, want %v", i, x, u*zigX[layer])
			}
		case layer == 0:
			tail++
			if math.Abs(x) <= zigR || (x < 0) != (u < 0) {
				t.Fatalf("key %d: tail draw %v for u = %v", i, x, u)
			}
		default:
			wedge++
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("key %d: wedge drew %v", i, x)
			}
		}
	}
	t.Logf("fast %d, wedge %d, tail %d", fast, wedge, tail)
	if fast == 0 || wedge == 0 || tail == 0 {
		t.Fatalf("a branch never ran: fast %d, wedge %d, tail %d", fast, wedge, tail)
	}
}

// TestNormFloat64Table recomputes the strip edges from their recurrence and
// requires the checked-in literals to agree within 2 ulp, and the top strip
// to close at area zigV.
func TestNormFloat64Table(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	var x [zigLayers + 1]float64
	x[0], x[1] = zigV/f(zigR), zigR
	for i := 1; i < zigLayers-1; i++ {
		x[i+1] = math.Sqrt(-2 * math.Log(zigV/x[i]+f(x[i])))
	}
	for i, want := range x {
		got := zigX[i]
		d := int64(math.Float64bits(got)) - int64(math.Float64bits(want))
		if d < -2 || d > 2 {
			t.Errorf("zigX[%d] = %v, recurrence gives %v (%d ulp)", i, got, want, d)
		}
	}
	top := zigX[zigLayers-1]
	if a := top * (1 - f(top)); math.Abs(a-zigV) > 1e-9*zigV {
		t.Errorf("top strip area %v, want %v", a, zigV)
	}
	for i, q := range zigRatio {
		if q != zigX[i+1]/zigX[i] {
			t.Fatalf("zigRatio[%d] = %v", i, q)
		}
	}
}

var normSink float64

// BenchmarkNormFloat64 times one normal in the sampling kernel's shape:
// reseed on a two-part extension of a mixed prefix, then draw.
func BenchmarkNormFloat64(b *testing.B) {
	var r Rand
	prefix := MixKey(1, 2, 3)
	sum := 0.0
	for i := 0; i < b.N; i++ {
		r.Reseed(Mix2(prefix, uint64(i), 0))
		sum += r.NormFloat64()
	}
	normSink = sum
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestPoissonMoments(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 12, 50, 200} {
		r := New(uint64(lambda * 1000))
		const n = 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(r.Poisson(lambda))
			if v < 0 {
				t.Fatalf("negative Poisson draw")
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("lambda=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda) > 0.1*lambda+0.1 {
			t.Fatalf("lambda=%v: variance %v", lambda, variance)
		}
	}
}

func TestPoissonZeroLambda(t *testing.T) {
	r := New(8)
	if v := r.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := r.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", v)
	}
}

func TestMul64MatchesBig(t *testing.T) {
	// Property: mul64 agrees with the identity via 32-bit decomposition.
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via math/bits-free reference: (a*b) mod 2^64 == lo.
		return lo == a*b && (b == 0 || hi == mulHiRef(a, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mulHiRef computes the high 64 bits of a*b by 4-way decomposition.
func mulHiRef(a, b uint64) uint64 {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	carry := (aLo*bLo)>>32 + (aHi*bLo)&mask + (aLo*bHi)&mask
	return aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry>>32
}

func TestUniformBitsKS(t *testing.T) {
	// A coarse Kolmogorov–Smirnov check on uniformity of Float64.
	r := New(9)
	const n = 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Float64()
	}
	// Sort via simple insertion into buckets then compare CDF.
	const buckets = 100
	counts := make([]int, buckets)
	for _, v := range vals {
		b := int(v * buckets)
		if b == buckets {
			b--
		}
		counts[b]++
	}
	cum := 0
	maxDev := 0.0
	for i, c := range counts {
		cum += c
		emp := float64(cum) / n
		theo := float64(i+1) / buckets
		if d := math.Abs(emp - theo); d > maxDev {
			maxDev = d
		}
	}
	// KS critical value at alpha=0.001 for n=10000 is ~0.0195.
	if maxDev > 0.0195 {
		t.Fatalf("KS deviation %v exceeds critical value", maxDev)
	}
}
