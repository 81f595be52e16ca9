package sampler

import (
	"math"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

// groupSampler draws joint values for one minimal independent constraint
// group. It owns the accept/attempt counters that feed both the Metropolis
// escalation decision and the free probability estimate of Algorithm 4.3
// line 29 (Prob = prod_K N/Count[K]).
type groupSampler struct {
	group  cond.Group
	bounds cond.Bounds
	cfg    *Config

	// fr numbers the group's variables (Group.Keys order; multivariate
	// components are drawn jointly via their subscript-0 seed) and holds the
	// draw plan; atoms is the group's clause compiled against that numbering.
	// Both are immutable after set-up and shared by every batch-local copy.
	fr    *frame
	atoms *cond.ClauseProgram
	// base is the group's slot offset inside the scratch of the engine that
	// draws from it (0 when the group is sampled alone).
	base int
	// massFraction is the product over CDF-mode variables of the prior
	// mass of their bounds interval; it multiplies the acceptance rate to
	// recover the unconditioned constraint probability.
	massFraction float64

	attempts int // total candidate draws
	accepts  int // accepted (constraint-satisfying) draws

	inconsistent bool
	metro        *metroState
	// escalated records that some batch-local copy of this group switched
	// to Metropolis mid-stream (parallel engine); the merged probability
	// estimate is then invalid just as if the group itself had escalated.
	escalated bool
}

// cloneInto makes dst a sampler sharing this one's immutable set-up (group,
// bounds, draw plan, compiled atoms — all read-only during drawing) but with
// fresh accept/attempt counters and no Metropolis chain. The parallel engine
// resets one such copy per group at the start of every batch, making the
// batch's output a pure function of its sample-index range. Prototypes that
// pre-escalated to Metropolis are never copied (the engine runs them
// sequentially instead).
func (gs *groupSampler) cloneInto(dst *groupSampler) {
	*dst = *gs
	dst.attempts, dst.accepts, dst.metro, dst.escalated = 0, 0, nil, false
}

// newGroupSampler runs the consistency check for the group, chooses
// per-variable strategies and compiles the group's atoms. It draws nothing:
// the Metropolis pilot belongs to the engine that will draw from the sampler
// (maybePreEscalate). The error is a compile failure — an expression node
// outside the closed Expr set.
func newGroupSampler(g cond.Group, cfg *Config) (*groupSampler, error) {
	gs := &groupSampler{group: g, cfg: cfg}
	res := cond.CheckConsistency(g.Atoms)
	gs.bounds = res.Bounds
	if res.Verdict == cond.Inconsistent {
		gs.inconsistent = true
		return gs, nil
	}
	var consistent bool
	gs.fr, gs.massFraction, consistent = newGroupFrame(g, gs.bounds, cfg)
	if !consistent {
		// The bounds carry zero prior mass: the group is (numerically)
		// unsatisfiable.
		gs.inconsistent = true
		return gs, nil
	}
	atoms, err := cond.CompileClause(g.Atoms, gs.fr.table)
	if err != nil {
		return nil, err
	}
	gs.atoms = atoms
	return gs, nil
}

// vals returns the group's window of an engine scratch.
func (gs *groupSampler) vals(sc *scratch) []float64 {
	return sc.vals[gs.base : gs.base+gs.fr.size()]
}

// maybePreEscalate implements the paper's upfront cost comparison
// (§IV-A-d): a small pilot estimates P[reject]; if the expected rejection
// work W_naive = n / (1 - P[reject]) exceeds the Metropolis cost
// W_metropolis = C_burnin + n * C_step, the group starts on the random walk
// immediately instead of discovering the rejection rate the hard way. The
// pilot and the chain draw from keyed streams of their own, so running them
// (or not) never moves a sample; only samplers that will be drawn from pay
// for them.
func (gs *groupSampler) maybePreEscalate() {
	if gs.cfg.DisableMetropolis || gs.inconsistent || len(gs.group.Atoms) == 0 {
		return
	}
	// Single-variable CDF-bounded groups never reject on bounds; the pilot
	// is only worth running when some constraint survives the bounds
	// (multi-variable atoms, or variables without CDF support).
	multiVarAtom := false
	for _, a := range gs.group.Atoms {
		set := map[expr.VarKey]*expr.Variable{}
		a.CollectVars(set)
		if len(set) > 1 {
			multiVarAtom = true
			break
		}
	}
	if !multiVarAtom {
		return
	}
	const pilot = 200
	pReject := gs.estimateRejectProb(pilot)
	// Expected samples this group will be asked for.
	n := float64(gs.cfg.FixedSamples)
	if n <= 0 {
		n = float64(gs.cfg.MinSamples)
		if n <= 0 {
			n = 30
		}
	}
	if pReject >= 1 {
		pReject = 1 - 1e-9
	}
	wNaive := n / (1 - pReject)
	wMetropolis := float64(gs.cfg.MetropolisBurnIn) + n*float64(gs.cfg.MetropolisThin)
	// Escalate only when the rejection rate is past the threshold AND the
	// cost model favors the walk: moderate selectivities stay on rejection
	// (independent samples beat a correlated chain when affordable).
	if pReject > gs.cfg.MetropolisThreshold && wNaive > wMetropolis {
		if m := newMetroState(gs, 0); m != nil {
			gs.metro = m
			gs.cfg.Stats.AddEscalation()
		}
	}
}

// intervalMass returns the prior CDF mass edges of the closed interval iv,
// clamped to [0,1]. For integer-valued distributions the CDF is a
// right-continuous step function, so the closed interval [lo, hi] carries
// mass CDF(hi) - CDF(ceil(lo)-1); using CDF(lo) directly would drop the
// point mass at lo (and report zero mass for pinned intervals like [0, 0],
// the shape repair-key conditions produce).
func intervalMass(in dist.Instance, iv cond.Interval) (float64, float64) {
	lo, hi := 0.0, 1.0
	discrete := in.IntegerValued()
	if !math.IsInf(iv.Lo, -1) {
		edge := iv.Lo
		if discrete {
			edge = math.Ceil(iv.Lo) - 1
		}
		if v, ok := in.CDF(edge); ok {
			lo = v
		}
	}
	if !math.IsInf(iv.Hi, 1) {
		edge := iv.Hi
		if discrete {
			edge = math.Floor(iv.Hi)
		}
		if v, ok := in.CDF(edge); ok {
			hi = v
		}
	}
	return math.Max(0, math.Min(1, lo)), math.Max(0, math.Min(1, hi))
}

// usingMetropolis reports whether the group (or any batch-local clone of
// it) has escalated to the random walk.
func (gs *groupSampler) usingMetropolis() bool { return gs.metro != nil || gs.escalated }

// probEstimate returns this group's contribution to P[C]: the prior mass of
// the CDF-restricted box times the in-box acceptance rate. It is undefined
// (ok=false) for Metropolis-mode groups (Algorithm 4.3 line 31 note).
func (gs *groupSampler) probEstimate() (float64, bool) {
	if gs.inconsistent {
		return 0, true
	}
	if gs.usingMetropolis() {
		return 0, false
	}
	if gs.attempts == 0 {
		return 0, false
	}
	return gs.massFraction * float64(gs.accepts) / float64(gs.attempts), true
}

// ctxCheckEvery is how many rejection candidates drawInto draws between
// looks at the context. A candidate costs tens of nanoseconds, but once the
// rejection rate has crossed the Metropolis threshold each one may also
// try (and fail) to start a walk, which scans thousands of points.
const ctxCheckEvery = 256

// drawInto draws one constraint-satisfying joint value for the group into
// its window of sc. It returns false if the rejection cap is exhausted and
// Metropolis is unavailable (the context is effectively unsatisfiable: NAN
// result per Algorithm 4.3 line 25), and also once cfg.Ctx is done.
func (gs *groupSampler) drawInto(sc *scratch, sampleIdx uint64) bool {
	if gs.inconsistent {
		return false
	}
	vals := gs.vals(sc)
	if gs.metro != nil {
		return gs.metro.next(vals)
	}
	capN := gs.cfg.RejectionCap
	if capN <= 0 {
		capN = 200000
	}
	// newMetroState depends only on the group, WorldSeed and sampleIdx, so
	// a walk that cannot start for this sample is not tried again.
	metroTried := false
	for local := 0; local < capN; local++ {
		// One sample of a group whose atoms never hold runs the whole cap
		// between two round barriers, so the loop looks at the context
		// itself; fanOut then reports the context's error.
		if local%ctxCheckEvery == ctxCheckEvery-1 && gs.cfg.ctxErr() != nil {
			return false
		}
		gs.attempts++
		gs.fr.drawCandidate(vals, &sc.rng, sampleIdx, uint64(local))
		if gs.atoms.Holds(vals, sc.stack) {
			gs.accepts++
			return true
		}
		// Escalation check (Algorithm 4.3 lines 19–24): once the observed
		// rejection rate crosses the threshold, switch to Metropolis if
		// every variable has a PDF.
		if !gs.cfg.DisableMetropolis && !metroTried && gs.attempts >= 1000 {
			rejRate := 1 - float64(gs.accepts)/float64(gs.attempts)
			if rejRate > gs.cfg.MetropolisThreshold {
				metroTried = true
				if m := newMetroState(gs, sampleIdx); m != nil {
					gs.metro = m
					gs.cfg.Stats.AddEscalation()
					return gs.metro.next(vals)
				}
				// No PDFs: keep rejecting until the cap.
			}
		}
	}
	return false
}

// estimateRejectProb draws a small pilot to estimate P[reject] for the
// group, used by the W_metropolis vs W_naive cost comparison (§IV-A-d).
func (gs *groupSampler) estimateRejectProb(pilot int) float64 {
	if gs.inconsistent {
		return 1
	}
	sc := newScratch(gs.fr.size(), gs.atoms.MaxStack())
	ok := 0
	for i := 0; i < pilot; i++ {
		gs.fr.drawCandidate(sc.vals, &sc.rng, ^uint64(0)-uint64(i), 0)
		if gs.atoms.Holds(sc.vals, sc.stack) {
			ok++
		}
	}
	return 1 - float64(ok)/float64(pilot)
}
