package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/prng"
)

// The sampling kernel's data layout.
//
// Every sampling unit — a constraint group, a DNF world sample, a table world
// sample, a Metropolis chain — numbers its variables into dense slots ONCE, at
// set-up, in the deterministic key order it already used (Group.Keys,
// sortedKeys), and compiles everything it evaluates (atoms, row conditions,
// targets, symbolic cells) against that numbering. A possible world is then a
// []float64 in slot order, owned by whoever runs the loop; the hot loops
// write vals[slot], reseed one reusable prng.Rand, and call compiled programs
// — no map, no tree walk, no allocation.
//
// Bit-identity with the map-based kernel this replaced holds by construction:
// a draw plan lists its steps in the order the old loop visited keys, every
// step seeds its generator from the same key parts in the same order (the
// constant prefix is merely mixed at set-up), and compiled programs execute
// the tree walk's float operations in the tree walk's order.

// varMode selects the per-variable generation strategy inside a draw plan
// (Algorithm 4.3 lines 6–10).
type varMode uint8

const (
	modeNatural varMode = iota // plain Generate
	modeCDF                    // inverse-CDF restricted to the bounds interval
	modeJoint                  // one GenerateJoint scattered over the components
)

// drawStep draws one variable (or, for modeJoint, every component of one
// multivariate variable ID) into its slot(s).
type drawStep struct {
	mode varMode
	slot int // natural / CDF: the slot written
	in   dist.Instance
	// id and sub are the variable's key parts as they enter the PRNG key;
	// seed is the part of that key mixed at set-up (group plans only).
	id, sub uint64
	seed    uint64

	// modeCDF: the inverse CDF, the prior mass edges of the bounds interval
	// (constant per group — the rejection loop would otherwise re-integrate
	// them on every attempt) and the interval itself, for clamping.
	inv      dist.InvCDFer
	pLo, pHi float64
	lo, hi   float64

	// modeJoint: scatter[c] is the slot of component c, or -1 when the unit
	// never reads it.
	joint   dist.Multivariater
	scatter []int
}

// frame is a sampling unit's slot numbering plus its draw plan.
type frame struct {
	table *expr.SlotTable
	steps []drawStep
	// worldSeed is MixKey(WorldSeed): the prefix of every world-keyed draw.
	worldSeed uint64
}

// size returns the number of slots.
func (f *frame) size() int { return f.table.Len() }

// newFrame numbers keys (in order) and plans one natural step per univariate
// key and one joint step per multivariate variable ID, at its first key.
func newFrame(keys []expr.VarKey, vars map[expr.VarKey]*expr.Variable) *frame {
	f := &frame{table: expr.NewSlotTable(keys)}
	for i, k := range keys {
		v := vars[k]
		st := drawStep{slot: i, in: v.Dist, id: k.ID, sub: uint64(k.Subscript)}
		if mv, ok := v.Dist.Class.(dist.Multivariater); ok {
			if i > 0 && keys[i-1].ID == k.ID {
				continue // keys are sorted: the ID's joint step already exists
			}
			// The whole vector is drawn from the subscript-0 key.
			st.mode, st.joint, st.sub = modeJoint, mv, 0
			for j := i; j < len(keys) && keys[j].ID == k.ID; j++ {
				c := keys[j].Subscript
				if c < 0 {
					continue // no such component: the slot stays NaN
				}
				for len(st.scatter) <= c {
					st.scatter = append(st.scatter, -1)
				}
				st.scatter[c] = j
			}
		}
		f.steps = append(f.steps, st)
	}
	return f
}

// newGroupFrame builds the draw plan of one constraint group: CDF-restricted
// generation for every bounded univariate variable whose class can invert
// its CDF, natural generation otherwise (joint draws cannot be bound
// per-component). massFraction is the product of the CDF boxes' prior
// masses; consistent is false when some box carries zero mass (the group is
// numerically unsatisfiable).
func newGroupFrame(g cond.Group, bounds cond.Bounds, cfg *Config) (f *frame, massFraction float64, consistent bool) {
	f = newFrame(g.Keys, g.Vars)
	massFraction = 1
	for i := range f.steps {
		st := &f.steps[i]
		st.seed = prng.MixKey(cfg.WorldSeed, st.id, st.sub)
		if st.mode != modeNatural || cfg.DisableCDFInversion {
			continue
		}
		iv := bounds.Get(g.Keys[st.slot])
		if !iv.Bounded() {
			continue
		}
		_, hasCDF := st.in.Class.(dist.CDFer)
		inv, hasInv := st.in.Class.(dist.InvCDFer)
		if !hasCDF || !hasInv {
			continue
		}
		pLo, pHi := intervalMass(st.in, iv)
		if pHi <= pLo {
			return f, 0, false
		}
		st.mode, st.inv = modeCDF, inv
		st.pLo, st.pHi, st.lo, st.hi = pLo, pHi, iv.Lo, iv.Hi
		massFraction *= pHi - pLo
	}
	return f, massFraction, true
}

// newWorldFrame builds the plan of an unconditioned world sample over vars:
// every variable drawn naturally, keyed as expr.SampleVariable keys it.
func newWorldFrame(vars map[expr.VarKey]*expr.Variable, seed uint64) *frame {
	f := newFrame(sortedKeys(vars), vars)
	f.worldSeed = prng.MixKey(seed)
	return f
}

// drawCandidate writes one unconditioned (or CDF-box-conditioned) draw for
// every variable of a group plan into vals. Step s is seeded
// MixKey(WorldSeed, id, subscript, sampleIdx, attempt).
func (f *frame) drawCandidate(vals []float64, r *prng.Rand, sampleIdx, attempt uint64) {
	for i := range f.steps {
		st := &f.steps[i]
		r.Reseed(prng.Mix2(st.seed, sampleIdx, attempt))
		switch st.mode {
		case modeCDF:
			u := st.pLo + (st.pHi-st.pLo)*r.Float64()
			x := st.inv.InvCDF(st.in.Params, u)
			// Clamp against numeric drift at the interval edges.
			if x < st.lo {
				x = st.lo
			}
			if x > st.hi {
				x = st.hi
			}
			vals[st.slot] = x
		case modeJoint:
			st.scatterJoint(vals, r)
		default:
			vals[st.slot] = st.in.Generate(r)
		}
	}
}

// drawWorld writes world idx of a world plan into vals: step s is seeded
// MixKey(WorldSeed, idx, id, subscript), so the values are exactly
// expr.SampleVariable's — with one joint draw per multivariate variable ID
// instead of one per component.
func (f *frame) drawWorld(vals []float64, r *prng.Rand, idx uint64) {
	base := prng.Mix1(f.worldSeed, idx)
	for i := range f.steps {
		st := &f.steps[i]
		r.Reseed(prng.Mix2(base, st.id, st.sub))
		if st.mode == modeJoint {
			st.scatterJoint(vals, r)
		} else {
			vals[st.slot] = st.in.Generate(r)
		}
	}
}

// scatterJoint draws the joint vector once and writes the components the
// unit reads. A subscript beyond the vector keeps its NaN.
func (st *drawStep) scatterJoint(vals []float64, r *prng.Rand) {
	vec := st.joint.GenerateJoint(st.in.Params, r)
	for c, slot := range st.scatter {
		if slot >= 0 && c < len(vec) {
			vals[slot] = vec[c]
		}
	}
}

// scratch is the caller-owned working memory of one draw loop: one world in
// slot order, the compiled programs' evaluation stack, and the generator
// every draw reseeds. Exactly one goroutine uses a scratch at a time.
type scratch struct {
	vals  []float64
	stack []float64
	rng   prng.Rand
}

// newScratch sizes a scratch. Slots start as NaN: a slot no draw step writes
// (a multivariate subscript with no component) reads as an unassigned
// variable, as Var.Eval reports it.
func newScratch(slots, stack int) *scratch {
	buf := make([]float64, slots+stack)
	sc := &scratch{vals: buf[:slots:slots], stack: buf[slots:]}
	for i := range sc.vals {
		sc.vals[i] = math.NaN()
	}
	return sc
}
