package sampler

import (
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
)

// deepTailGroup is a two-variable group rejection cannot reach (Y1+Y2 > 7
// for standard normals): the pilot's cost model must choose the walk.
func deepTailGroup(t *testing.T) cond.Group {
	t.Helper()
	y1 := mkVar(t, dist.Normal{}, 0, 1)
	y2 := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{
		atom(expr.Add(expr.NewVar(y1), expr.NewVar(y2)), cond.GT, expr.Const(7)),
	}
	return cond.Partition(c, nil)[0]
}

// TestPreEscalationDeepTail: the pilot cost model (§IV-A-d) must put a
// deep-tail two-variable group onto Metropolis immediately, without burning
// a thousand rejected candidates first.
func TestPreEscalationDeepTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 5
	cfg.FixedSamples = 100
	g := deepTailGroup(t)
	gs, sc := soloSampler(t, g, &cfg)
	gs.maybePreEscalate()
	if !gs.usingMetropolis() {
		t.Fatal("deep-tail group did not pre-escalate to Metropolis")
	}
	// And the walk produces satisfying samples.
	for i := 0; i < 20; i++ {
		if !gs.drawInto(sc, uint64(i)) {
			t.Fatal("metropolis draw failed")
		}
		if !g.Atoms.Holds(oracleAssignment(g.Keys, sc.vals)) {
			t.Fatal("metropolis sample violates constraints")
		}
	}
}

// TestPilotRunsOnlyWhereSamplesAreDrawn pins where the Metropolis pilot (and
// the start search and burn-in behind it) runs: in the engine that will draw
// from the sampler, never in set-up alone, and never on the probability-only
// paths, which read a sampler's draw plan and nothing else.
func TestPilotRunsOnlyWhereSamplesAreDrawn(t *testing.T) {
	mk := func() (Config, *obs.SamplerStats) {
		cfg := DefaultConfig()
		cfg.WorldSeed = 5
		cfg.FixedSamples = 100
		// The deep-tail group is linear-Gaussian: only sampling can walk.
		cfg.DisableClosedForm = true
		st := &obs.SamplerStats{}
		cfg.Stats = st
		return cfg, st
	}
	walked := func(st *obs.SamplerStats) bool {
		snap := st.Snapshot()
		return snap.Escalations != 0 || snap.MetropolisProposals != 0
	}
	g := deepTailGroup(t)
	target := expr.NewVar(g.Vars[g.Keys[0]])

	t.Run("set-up alone draws nothing", func(t *testing.T) {
		cfg, st := mk()
		gs, _ := soloSampler(t, g, &cfg)
		if gs.usingMetropolis() || walked(st) {
			t.Fatal("newGroupSampler ran the pilot")
		}
	})
	t.Run("the engine pilots its prototypes before any batch", func(t *testing.T) {
		cfg, st := mk()
		gs, _ := soloSampler(t, g, &cfg)
		ge, err := newGroupEngine(&cfg, []*groupSampler{gs}, target, false)
		if err != nil {
			t.Fatal(err)
		}
		if !ge.sequential || !gs.usingMetropolis() {
			t.Fatal("newGroupEngine did not pre-escalate the deep-tail group")
		}
		if got := st.Snapshot().Escalations; got != 1 {
			t.Fatalf("%d escalations, want exactly 1", got)
		}
	})
	t.Run("conf never walks", func(t *testing.T) {
		cfg, st := mk()
		cfg.FixedSamples = 0
		r := New(cfg).Conf(g.Atoms)
		if r.Err != nil || r.N == 0 {
			t.Fatalf("conf did not sample: %+v", r)
		}
		if walked(st) {
			t.Fatalf("conf() ran a pilot or a chain: %+v", st.Snapshot())
		}
	})
	t.Run("a probability-only group of an expectation never walks", func(t *testing.T) {
		cfg, st := mk()
		cfg.FixedSamples = 0
		free := mkVar(t, dist.Normal{}, 3, 1)
		c := append(cond.Clause{atom(expr.NewVar(free), cond.GT, expr.Const(2))}, g.Atoms...)
		r := New(cfg).Expectation(expr.NewVar(free), c, true)
		if r.Err != nil || r.N == 0 {
			t.Fatalf("expectation did not sample: %+v", r)
		}
		if walked(st) {
			t.Fatalf("the probability-only group ran a pilot or a chain: %+v", st.Snapshot())
		}
	})
}

// TestNoPreEscalationModerateSelectivity: at ~5% acceptance, independent
// rejection sampling is both affordable and statistically preferable; the
// cost model must keep the group on rejection (matching the paper's Q5:
// "the comparison of 2 random variables necessitates the use of rejection
// sampling").
func TestNoPreEscalationModerateSelectivity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 5
	cfg.FixedSamples = 1000
	d := mkVar(t, dist.Exponential{}, 1.0/100)
	s := mkVar(t, dist.Exponential{}, 1.0/1900) // P[D > S] = 0.05
	c := cond.Clause{atom(expr.NewVar(d), cond.GT, expr.NewVar(s))}
	groups := cond.Partition(c, nil)
	gs, _ := soloSampler(t, groups[0], &cfg)
	gs.maybePreEscalate()
	if gs.usingMetropolis() {
		t.Fatal("moderate-selectivity group pre-escalated; should stay on rejection")
	}
}

// TestNoPreEscalationSingleVarCDF: single-variable interval constraints are
// handled by CDF inversion and must never consider the walk.
func TestNoPreEscalationSingleVarCDF(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 5
	cfg.FixedSamples = 1000
	y := mkVar(t, dist.Normal{}, 0, 1)
	c := cond.Clause{atom(expr.NewVar(y), cond.GT, expr.Const(5))} // P ~ 3e-7
	groups := cond.Partition(c, nil)
	gs, sc := soloSampler(t, groups[0], &cfg)
	gs.maybePreEscalate()
	if gs.usingMetropolis() {
		t.Fatal("CDF-invertible group pre-escalated")
	}
	// Draws still succeed: CDF inversion never rejects.
	if !gs.drawInto(sc, 0) {
		t.Fatal("CDF draw failed")
	}
	if gs.attempts != gs.accepts {
		t.Fatal("CDF-bounded sampling rejected")
	}
}
