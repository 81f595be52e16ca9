package sampler

import (
	"math"
	"sync/atomic"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/prng"
)

// The oracle: the map-based kernel the frame kernel replaced, kept here —
// deliberately naive, one map write and one allocated generator per variable
// per candidate, tree-walk Holds — as the reference the compiled kernel is
// differentially tested against. Nothing outside tests may call it.

// oracleGroup is the old groupSampler's set-up and rejection loop.
type oracleGroup struct {
	group        cond.Group
	bounds       cond.Bounds
	cfg          *Config
	cdfMode      map[expr.VarKey]bool
	cdfBox       map[expr.VarKey][2]float64
	massFraction float64
	inconsistent bool
	attempts     int
	accepts      int
}

func newOracleGroup(g cond.Group, cfg *Config) *oracleGroup {
	o := &oracleGroup{
		group:        g,
		cfg:          cfg,
		cdfMode:      map[expr.VarKey]bool{},
		cdfBox:       map[expr.VarKey][2]float64{},
		massFraction: 1,
	}
	res := cond.CheckConsistency(g.Atoms)
	o.bounds = res.Bounds
	if res.Verdict == cond.Inconsistent {
		o.inconsistent = true
		return o
	}
	for _, k := range g.Keys {
		if cfg.DisableCDFInversion {
			continue
		}
		v := g.Vars[k]
		if _, multi := v.Dist.Class.(dist.Multivariater); multi {
			continue
		}
		iv := o.bounds.Get(k)
		if !iv.Bounded() {
			continue
		}
		_, hasCDF := v.Dist.Class.(dist.CDFer)
		_, hasInv := v.Dist.Class.(dist.InvCDFer)
		if !hasCDF || !hasInv {
			continue
		}
		pLo, pHi := intervalMass(v.Dist, iv)
		if pHi <= pLo {
			o.inconsistent = true
			return o
		}
		o.cdfMode[k] = true
		o.cdfBox[k] = [2]float64{pLo, pHi}
		o.massFraction *= pHi - pLo
	}
	return o
}

// generateCandidate is the old per-candidate draw, verbatim.
func (o *oracleGroup) generateCandidate(asn expr.Assignment, sampleIdx, attempt uint64) {
	drawnJoint := map[uint64]bool{}
	for _, k := range o.group.Keys {
		v := o.group.Vars[k]
		if mv, ok := v.Dist.Class.(dist.Multivariater); ok {
			if drawnJoint[k.ID] {
				continue
			}
			drawnJoint[k.ID] = true
			r := prng.NewKeyed(o.cfg.WorldSeed, k.ID, 0, sampleIdx, attempt)
			vec := mv.GenerateJoint(v.Dist.Params, r)
			for sub, val := range vec {
				asn[expr.VarKey{ID: k.ID, Subscript: sub}] = val
			}
			continue
		}
		r := prng.NewKeyed(o.cfg.WorldSeed, k.ID, uint64(k.Subscript), sampleIdx, attempt)
		if o.cdfMode[k] {
			iv := o.bounds.Get(k)
			box := o.cdfBox[k]
			pLo, pHi := box[0], box[1]
			u := pLo + (pHi-pLo)*r.Float64()
			x, _ := v.Dist.InvCDF(u)
			if x < iv.Lo {
				x = iv.Lo
			}
			if x > iv.Hi {
				x = iv.Hi
			}
			asn[k] = x
		} else {
			asn[k] = v.Dist.Generate(r)
		}
	}
}

// drawInto is the old rejection loop (without the Metropolis escalation,
// which the oracle's callers disable).
func (o *oracleGroup) drawInto(asn expr.Assignment, sampleIdx uint64) bool {
	if o.inconsistent {
		return false
	}
	for local := 0; local < o.cfg.RejectionCap; local++ {
		o.attempts++
		o.generateCandidate(asn, sampleIdx, uint64(local))
		if o.group.Atoms.Holds(asn) {
			o.accepts++
			return true
		}
	}
	return false
}

// oracleDrawWorld is the old world draw, verbatim: one SampleVariable per
// key, so a d-dimensional joint vector is regenerated d times per world.
func oracleDrawWorld(asn expr.Assignment, keys []expr.VarKey, vars map[expr.VarKey]*expr.Variable, seed, idx uint64) {
	for _, k := range keys {
		asn[k] = expr.SampleVariable(vars[k], seed, idx)
	}
}

// oracleAssignment lifts a slot-ordered world back into the map form the
// tree walk reads. NaN slots are left unassigned (what a NaN slot encodes).
func oracleAssignment(keys []expr.VarKey, vals []float64) expr.Assignment {
	asn := expr.Assignment{}
	for i, k := range keys {
		if !math.IsNaN(vals[i]) {
			asn[k] = vals[i]
		}
	}
	return asn
}

// ---------------------------------------------------------------------------
// Random units for the differential tests.

// noCDF is a Generate-only class: natural generation and rejection only.
type noCDF struct{}

func (noCDF) Name() string                { return "OracleNoCDF" }
func (noCDF) CheckParams([]float64) error { return nil }
func (noCDF) Generate(p []float64, r *prng.Rand) float64 {
	return p[0] + p[1]*r.NormFloat64()
}

// cdfNoInverse can integrate an interval but not sample inside it.
type cdfNoInverse struct{ noCDF }

func (cdfNoInverse) Name() string { return "OracleCDFNoInverse" }
func (cdfNoInverse) CDF(p []float64, x float64) float64 {
	return dist.Normal{}.CDF(p, x)
}

// randUnit builds a random clause over 1–4 variables drawn from every
// distribution class (with and without CDF / inverse CDF, discrete,
// multivariate), with bounding, pinning, linear and nonlinear atoms.
type randUnit struct {
	r      *prng.Rand
	nextID uint64
	mv     []float64
}

func newRandUnit(t *testing.T, seed uint64) *randUnit {
	t.Helper()
	chol, err := dist.CholeskyFromCovariance([][]float64{{2, 0.6, 0.1}, {0.6, 1, -0.2}, {0.1, -0.2, 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	return &randUnit{r: prng.New(seed), nextID: 1, mv: dist.MVNormalParams([]float64{0.5, -1, 2}, chol)}
}

func (u *randUnit) pick(n int) int { return int(u.r.Uint64() % uint64(n)) }

// variable returns a fresh random variable and a typical value of it (used
// to place atom constants where they bite).
func (u *randUnit) variable() (*expr.Variable, float64) {
	id := u.nextID
	u.nextID++
	mk := func(c dist.Class, p ...float64) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: id}, Dist: dist.MustInstance(c, p...)}
	}
	switch u.pick(13) {
	case 0:
		return mk(dist.Normal{}, 1, 2), 1
	case 1:
		return mk(dist.Uniform{}, -1, 3), 1
	case 2:
		return mk(dist.Exponential{}, 0.5), 2
	case 3:
		return mk(dist.Lognormal{}, 0, 0.5), 1
	case 4:
		return mk(dist.Gamma{}, 2, 1), 2
	case 5:
		return mk(dist.Beta{}, 2, 3), 0.4
	case 6:
		return mk(dist.Poisson{}, 3.5), 3
	case 7:
		return mk(dist.Bernoulli{}, 0.4), 0
	case 8:
		return mk(dist.DiscreteUniform{}, 0, 6), 3
	case 9:
		return mk(dist.Categorical{}, 0.2, 0.5, 0.3), 1
	case 10:
		return mk(noCDF{}, 1, 2), 1
	case 11:
		return mk(cdfNoInverse{}, 1, 2), 1
	default:
		v := mk(dist.MVNormal{}, u.mv...)
		v.Key.Subscript = u.pick(3)
		return v, u.mv[1+v.Key.Subscript]
	}
}

func (u *randUnit) op() cond.CmpOp {
	return []cond.CmpOp{cond.LT, cond.LE, cond.GT, cond.GE}[u.pick(4)]
}

// clause returns 1–4 variables and 1–4 atoms over them.
func (u *randUnit) clause() (cond.Clause, []*expr.Variable) {
	n := 1 + u.pick(4)
	vars := make([]*expr.Variable, n)
	mids := make([]float64, n)
	for i := range vars {
		vars[i], mids[i] = u.variable()
	}
	var c cond.Clause
	for a, natoms := 0, 1+u.pick(4); a < natoms; a++ {
		i, j := u.pick(n), u.pick(n)
		x, y := expr.NewVar(vars[i]), expr.NewVar(vars[j])
		switch u.pick(6) {
		case 0, 1: // one-sided bound near the variable's bulk
			c = append(c, cond.NewAtom(x, u.op(), expr.Const(mids[i]+u.r.Float64()-0.5)))
		case 2: // pinned (carries mass only for discrete classes)
			c = append(c, cond.NewAtom(x, cond.EQ, expr.Const(math.Round(mids[i]))))
		case 3: // linear, two variables
			c = append(c, cond.NewAtom(expr.Add(x, expr.Mul(expr.Const(2), y)), u.op(), expr.Const(mids[i]+2*mids[j])))
		case 4: // nonlinear product
			c = append(c, cond.NewAtom(expr.Mul(x, y), u.op(), expr.Const(mids[i]*mids[j])))
		default: // nonlinear quotient against a negation, and a disequality
			c = append(c, cond.NewAtom(expr.Div(x, expr.Add(y, expr.Const(7))), cond.NEQ, expr.Negate(y)))
		}
	}
	return c, vars
}

// TestFrameKernelMatchesOracle is the differential contract of the kernel:
// over random groups the frame's set-up verdict, every candidate's drawn
// values, every accept decision and the rejection loop's attempt counts
// equal the map-based oracle's, bit for bit.
func TestFrameKernelMatchesOracle(t *testing.T) {
	u := newRandUnit(t, 0xF4A3E)
	drew := 0
	for iter := 0; iter < 400; iter++ {
		c, _ := u.clause()
		cfg := DefaultConfig()
		cfg.WorldSeed = 1000 + uint64(iter)
		cfg.DisableMetropolis = true
		cfg.RejectionCap = 300
		cfg.DisableCDFInversion = iter%7 == 6
		for _, g := range cond.Partition(c, nil) {
			o := newOracleGroup(g, &cfg)
			gs, sc := soloSampler(t, g, &cfg)
			if gs.inconsistent != o.inconsistent {
				t.Fatalf("iter %d %s: inconsistent %v, oracle %v", iter, g.Atoms, gs.inconsistent, o.inconsistent)
			}
			if gs.inconsistent {
				continue
			}
			if !eq(gs.massFraction, o.massFraction) {
				t.Fatalf("iter %d %s: massFraction %v, oracle %v", iter, g.Atoms, gs.massFraction, o.massFraction)
			}
			asn := expr.Assignment{}
			same := func(what string, idx, attempt uint64) {
				t.Helper()
				for i, k := range g.Keys {
					want, ok := asn[k]
					if !ok {
						want = math.NaN()
					}
					if !eq(sc.vals[i], want) {
						t.Fatalf("iter %d %s: %s (%d, %d) %v = %v, oracle %v", iter, g.Atoms, what, idx, attempt, k, sc.vals[i], want)
					}
				}
			}
			// Raw candidates, including the conf() stream and the pilot's
			// index range.
			for _, idx := range []uint64{0, 1, 63, 64, ^uint64(0), ^uint64(0) - 17} {
				for _, attempt := range []uint64{0, 1, 5, 0xC0} {
					o.generateCandidate(asn, idx, attempt)
					gs.fr.drawCandidate(sc.vals, &sc.rng, idx, attempt)
					same("candidate", idx, attempt)
					if got, want := gs.atoms.Holds(sc.vals, sc.stack), g.Atoms.Holds(asn); got != want {
						t.Fatalf("iter %d %s: candidate (%d, %d) accepted %v, oracle %v", iter, g.Atoms, idx, attempt, got, want)
					}
				}
			}
			// The rejection loop.
			for idx := uint64(0); idx < 12; idx++ {
				got, want := gs.drawInto(sc, idx), o.drawInto(asn, idx)
				if got != want || gs.attempts != o.attempts || gs.accepts != o.accepts {
					t.Fatalf("iter %d %s: sample %d ok=%v after %d/%d, oracle ok=%v after %d/%d",
						iter, g.Atoms, idx, got, gs.accepts, gs.attempts, want, o.accepts, o.attempts)
				}
				if !got {
					break
				}
				same("accepted sample", idx, 0)
				drew++
			}
		}
	}
	if drew < 1000 {
		t.Fatalf("only %d accepted samples compared: the generator no longer produces satisfiable groups", drew)
	}
}

// TestWorldFrameMatchesOracle: a world drawn through the frame equals the
// oracle's world bit for bit, and compiled DNF verdicts and targets equal
// the tree walk's.
func TestWorldFrameMatchesOracle(t *testing.T) {
	u := newRandUnit(t, 0xD0F)
	for iter := 0; iter < 150; iter++ {
		c1, v1 := u.clause()
		c2, v2 := u.clause()
		d := cond.Condition{Clauses: []cond.Clause{c1, c2}}
		e := expr.Add(expr.Mul(expr.NewVar(v1[0]), expr.NewVar(v2[0])), expr.NewVar(v1[len(v1)-1]))
		vars := map[expr.VarKey]*expr.Variable{}
		d.CollectVars(vars)
		e.CollectVars(vars)
		seed := uint64(7 + iter)
		fr := newWorldFrame(vars, seed)
		holds, err := cond.CompileCondition(d, fr.table)
		if err != nil {
			t.Fatal(err)
		}
		target, err := expr.CompileSlots(e, fr.table)
		if err != nil {
			t.Fatal(err)
		}
		sc := newScratch(fr.size(), max(holds.MaxStack(), target.MaxStack()))
		keys := sortedKeys(vars)
		asn := expr.Assignment{}
		for idx := uint64(0); idx < 40; idx++ {
			oracleDrawWorld(asn, keys, vars, seed, idx)
			fr.drawWorld(sc.vals, &sc.rng, idx)
			for i, k := range keys {
				if !eq(sc.vals[i], asn[k]) {
					t.Fatalf("iter %d world %d: %v = %v, oracle %v", iter, idx, k, sc.vals[i], asn[k])
				}
			}
			if got, want := holds.Holds(sc.vals, sc.stack), d.Holds(asn); got != want {
				t.Fatalf("iter %d world %d: holds %v, oracle %v", iter, idx, got, want)
			}
			if got, want := target.EvalSlots(sc.vals, sc.stack), e.Eval(asn); !eq(got, want) {
				t.Fatalf("iter %d world %d: target %v, oracle %v", iter, idx, got, want)
			}
		}
	}
}

// countingMV is MVNormal counting its joint draws.
type countingMV struct {
	dist.MVNormal
	calls *atomic.Int64
}

func (c countingMV) GenerateJoint(p []float64, r *prng.Rand) []float64 {
	c.calls.Add(1)
	return c.MVNormal.GenerateJoint(p, r)
}

// TestJointDrawnOncePerWorld: a 3-component MVNormal costs one GenerateJoint
// per world (the old world draw made one per component), and every
// component still equals the old draw's value bit for bit — including a
// subscript beyond the vector, which stays unassigned.
func TestJointDrawnOncePerWorld(t *testing.T) {
	u := newRandUnit(t, 1)
	var calls atomic.Int64
	class := countingMV{calls: &calls}
	comp := func(sub int) *expr.Variable {
		return &expr.Variable{Key: expr.VarKey{ID: 900, Subscript: sub}, Dist: dist.MustInstance(class, u.mv...)}
	}
	m0, m1, m2, beyond := comp(0), comp(1), comp(2), comp(5)
	x := &expr.Variable{Key: expr.VarKey{ID: 901}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}

	tb := ctable.New("mv", "val")
	for _, cell := range []expr.Expr{
		expr.Add(expr.NewVar(m0), expr.NewVar(m2)),
		expr.Mul(expr.NewVar(m1), expr.NewVar(x)),
	} {
		tup := ctable.NewTuple(ctable.Symbolic(cell))
		tup.Cond = cond.FromClause(cond.Clause{cond.NewAtom(expr.NewVar(m1), cond.LT, expr.NewVar(m2))})
		tb.MustAppend(tup)
	}
	cfg := DefaultConfig()
	cfg.WorldSeed = 77
	cfg.Workers = 1
	const worlds = 130
	if _, err := New(cfg).AggregateHistogram(tb, 0, SumFold, worlds); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != worlds {
		t.Fatalf("%d joint draws for %d worlds, want one per world", got, worlds)
	}

	vars := map[expr.VarKey]*expr.Variable{}
	for _, v := range []*expr.Variable{m0, m1, m2, beyond, x} {
		vars[v.Key] = v
	}
	fr := newWorldFrame(vars, cfg.WorldSeed)
	sc := newScratch(fr.size(), 0)
	keys := sortedKeys(vars)
	asn := expr.Assignment{}
	for idx := uint64(0); idx < 50; idx++ {
		calls.Store(0)
		fr.drawWorld(sc.vals, &sc.rng, idx)
		if calls.Load() != 1 {
			t.Fatalf("world %d: %d joint draws", idx, calls.Load())
		}
		oracleDrawWorld(asn, keys, vars, cfg.WorldSeed, idx)
		for i, k := range keys {
			if !eq(sc.vals[i], asn[k]) {
				t.Fatalf("world %d: %v = %v, old draw %v", idx, k, sc.vals[i], asn[k])
			}
		}
	}
	if !math.IsNaN(sc.vals[3]) {
		t.Fatalf("subscript beyond the vector drew %v, want NaN", sc.vals[3])
	}
}
