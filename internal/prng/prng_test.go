package prng

import (
	"math"
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
// NewKeyed's stream exactly, including after a cached Box–Muller spare.
func TestReseedMatchesNewKeyed(t *testing.T) {
	var r Rand
	prefix := MixKey(11, 22, 33)
	for i := uint64(0); i < 50; i++ {
		want := NewKeyed(11, 22, 33, i, i*7)
		r.Reseed(Mix2(prefix, i, i*7))
		if Mix2(prefix, i, i*7) != Mix1(Mix1(prefix, i), i*7) {
			t.Fatal("Mix2 is not two Mix1 steps")
		}
		for j := 0; j < 3; j++ { // odd count: leaves a spare cached for the next reseed
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

func TestNormFloat64Moments(t *testing.T) {
	r := New(6)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
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
