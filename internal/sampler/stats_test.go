package sampler

import (
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
)

// TestBitIdentityWithStats is the deterministic-neutrality contract of the
// telemetry layer: attaching a stats sink must not perturb a single bit of
// any result, at any worker count, across the whole strategy corpus. The
// baseline runs with Stats nil; the traced runs must match it exactly.
func TestBitIdentityWithStats(t *testing.T) {
	for _, sc := range expectationCorpus(t) {
		t.Run(sc.name, func(t *testing.T) {
			base := sc.run(workerSampler(1))
			for _, workers := range []int{1, 3, 8} {
				st := &obs.SamplerStats{}
				got := sc.run(workerSampler(workers).WithStats(st))
				if len(got) != len(base) {
					t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(base))
				}
				for i := range base {
					if !eq(got[i], base[i]) {
						t.Fatalf("workers=%d with stats: value %d = %v, want %v (bit-identical)",
							workers, i, got[i], base[i])
					}
				}
				snap := st.Snapshot()
				if snap.Samples == 0 || snap.Rounds == 0 {
					t.Fatalf("workers=%d: stats sink stayed empty: %+v", workers, snap)
				}
			}
		})
	}
}

// TestStatsCountsAndTrajectory pins what the sampler reports: the sample
// count matches the result's N, batches cover the samples, and adaptive
// runs record a shrinking relative-width trajectory.
func TestStatsCountsAndTrajectory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 7
	cfg.Workers = 4
	cfg.DisableClosedForm = true // the truncated-normal mean is exact otherwise
	st := &obs.SamplerStats{}
	cfg.Stats = st
	s := New(cfg)

	y := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 5, 3)}
	c := cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(4))}
	r := s.Expectation(expr.NewVar(y), c, true)

	snap := st.Snapshot()
	if snap.Samples != int64(r.N) {
		t.Fatalf("stats saw %d samples, result drew %d", snap.Samples, r.N)
	}
	if snap.Batches == 0 || snap.Rounds == 0 {
		t.Fatalf("no batches/rounds recorded: %+v", snap)
	}
	if snap.RejectionAttempts < snap.RejectionAccepts || snap.RejectionAccepts == 0 {
		t.Fatalf("rejection counters inconsistent: %+v", snap)
	}
	traj := st.Trajectory()
	if len(traj) == 0 {
		t.Fatal("adaptive run recorded no trajectory")
	}
	last := traj[len(traj)-1]
	if last.N != r.N {
		t.Fatalf("trajectory tail N=%d, result N=%d", last.N, r.N)
	}
	if first := traj[0]; len(traj) > 1 && last.RelWidth >= first.RelWidth {
		t.Fatalf("relative width did not shrink: first %+v, last %+v", first, last)
	}
}

// TestMetropolisStatsRecorded asserts the escalation path reports itself:
// a sliver-thin constraint forces Metropolis escalation, which must show up
// as escalations and proposal/accept counts.
func TestMetropolisStatsRecorded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WorldSeed = 42
	cfg.FixedSamples = 300
	cfg.DisableClosedForm = true
	st := &obs.SamplerStats{}
	cfg.Stats = st
	s := New(cfg)

	// Deep-tail two-variable constraint (single-variable intervals invert
	// the exact CDF instead): rejection is hopeless, so the group
	// pre-escalates to Metropolis.
	a := &expr.Variable{Key: expr.VarKey{ID: 9}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	b := &expr.Variable{Key: expr.VarKey{ID: 10}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	e := expr.Add(expr.NewVar(a), expr.NewVar(b))
	c := cond.Clause{cond.NewAtom(e, cond.GT, expr.Const(6))}
	s.Expectation(e, c, false)

	snap := st.Snapshot()
	if snap.Escalations == 0 {
		t.Fatalf("thin-constraint run did not escalate: %+v", snap)
	}
	if snap.MetropolisProposals == 0 {
		t.Fatalf("escalated run recorded no Metropolis proposals: %+v", snap)
	}
	if snap.MetropolisAccepts > snap.MetropolisProposals {
		t.Fatalf("accepts exceed proposals: %+v", snap)
	}
}
