// Package prng provides the deterministic pseudorandom number generation
// substrate used throughout PIP.
//
// PIP's symbolic representation requires that a random variable receive one
// consistent value per sample, no matter how many times the variable appears
// in a query result (paper §III-B: "the variable's identifier is used as part
// of the seed for the pseudorandom number generator used by the sampling
// process"). To make that cheap and stateless, every draw is produced by a
// counter-based generator keyed on (world seed, sample index, variable id):
// re-deriving the generator from the same key always reproduces the same
// stream, so no per-variable state needs to be stored.
//
// The core generator is splitmix64, which passes BigCrush, needs no warm-up
// and has a trivially seedable 64-bit state. On top of it the package
// provides the standard transforms used by the distribution classes:
// uniform, normal (a 256-layer ziggurat, see ziggurat.go), exponential and
// Poisson draws. The distribution layer adds inverse-CDF draws of its own.
//
// Which bits a given key produces is a contract, versioned by DrawVersion.
package prng

import "math"

// DrawVersion numbers the mapping from generator state to drawn values.
// Changing what any draw of this package returns for a given seed — a new
// transform, a different bit layout, a different rejection loop — bumps
// it. Replication compares it between primary and replica, because two
// builds that draw differently answer the same sampled query differently.
//
// Version 1 drew normals by Box–Muller; version 2 by the ziggurat.
const DrawVersion = 2

// Rand is a small, fast, deterministic pseudorandom generator based on
// splitmix64. The zero value is a valid generator seeded with 0; use New or
// NewKeyed to obtain a well-mixed stream.
type Rand struct {
	state uint64
}

// New returns a generator seeded with the given seed. Two generators built
// from the same seed produce identical streams.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// NewKeyed returns a generator whose stream is a pure function of the given
// key parts. It is the hook used to give each (world, sample, variable)
// triple an independent, reproducible stream.
func NewKeyed(parts ...uint64) *Rand {
	return New(MixKey(parts...))
}

// Reseed resets r in place to the stream New(seed) would produce. Hot loops
// keep one Rand value in their scratch and reseed it per draw instead of
// allocating a generator per key.
func (r *Rand) Reseed(seed uint64) {
	*r = Rand{state: seed}
}

// MixKey hashes an arbitrary sequence of 64-bit key parts into a single
// well-mixed 64-bit seed. It applies the splitmix64 finalizer between parts,
// which is sufficient to decorrelate nearby keys (e.g. consecutive sample
// indices).
func MixKey(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h = Mix1(h, p)
	}
	return h
}

// Mix1 extends a partially mixed key h by one more part: MixKey is the left
// fold of Mix1 over its parts, so MixKey(a, b, c) == Mix1(MixKey(a, b), c).
// A caller whose keys share a prefix mixes the prefix once and extends it
// per draw with the fixed-arity Mix1/Mix2 — same seeds, no variadic slice.
func Mix1(h, p uint64) uint64 {
	h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return mix64(h)
}

// Mix2 extends h by two parts: Mix2(h, a, b) == Mix1(Mix1(h, a), b).
func Mix2(h, a, b uint64) uint64 {
	return Mix1(Mix1(h, a), b)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Uint64 returns the next 64 pseudorandom bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Float64 returns a uniform pseudorandom float64 in the half-open interval
// [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high bits give a uniformly distributed dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform pseudorandom float64 in the open interval
// (0, 1). It is used where a subsequent transform (log, inverse CDF) cannot
// accept an exact 0 or 1.
func (r *Rand) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform pseudorandom int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded draws.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	c = t >> 32
	m := t & mask
	t = aLo*bHi + m
	lo |= (t & mask) << 32
	hi = aHi*bHi + c + (t >> 32)
	return hi, lo
}

// ExpFloat64 returns an exponential deviate with rate 1 via inverse-CDF.
func (r *Rand) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// Poisson returns a Poisson deviate with the given mean lambda.
//
// For small lambda it uses Knuth's product-of-uniforms method; for large
// lambda it uses the PTRS transformed-rejection method of Hörmann (1993),
// which is O(1) per draw.
func (r *Rand) Poisson(lambda float64) int64 {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		return r.poissonKnuth(lambda)
	default:
		return r.poissonPTRS(lambda)
	}
}

func (r *Rand) poissonKnuth(lambda float64) int64 {
	limit := math.Exp(-lambda)
	var k int64
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

func (r *Rand) poissonPTRS(lambda float64) int64 {
	// Hörmann's PTRS algorithm. Constants follow the original paper.
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int64(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-logGamma(k+1) {
			return int64(k)
		}
	}
}

// logGamma returns ln Γ(x) for x > 0 using the Lanczos approximation.
// It is shared with internal/dist via re-implementation there; keeping a
// private copy avoids an import cycle for this one function.
func logGamma(x float64) float64 {
	l, _ := math.Lgamma(x)
	return l
}
