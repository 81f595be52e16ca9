package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSamplerStatsParentChain(t *testing.T) {
	root := &SamplerStats{}
	mid := &SamplerStats{Parent: root}
	leaf := &SamplerStats{Parent: mid}

	leaf.AddRound(2, 5, 10, 4)
	leaf.AddMetropolis(true)
	leaf.AddMetropolis(false)
	leaf.AddEscalation()
	leaf.AddExactCDFHit()
	leaf.AddClosedFormHit()
	mid.AddRound(1, 3, 0, 0) // mid-level adds must not reach the leaf

	for _, tc := range []struct {
		name string
		st   *SamplerStats
		want SamplerSnapshot
	}{
		{"leaf", leaf, SamplerSnapshot{Samples: 5, Batches: 2, Rounds: 1,
			RejectionAttempts: 10, RejectionAccepts: 4, MetropolisProposals: 2,
			MetropolisAccepts: 1, Escalations: 1, ExactCDFHits: 1, ClosedFormHits: 1}},
		{"mid", mid, SamplerSnapshot{Samples: 8, Batches: 3, Rounds: 2,
			RejectionAttempts: 10, RejectionAccepts: 4, MetropolisProposals: 2,
			MetropolisAccepts: 1, Escalations: 1, ExactCDFHits: 1, ClosedFormHits: 1}},
		{"root", root, SamplerSnapshot{Samples: 8, Batches: 3, Rounds: 2,
			RejectionAttempts: 10, RejectionAccepts: 4, MetropolisProposals: 2,
			MetropolisAccepts: 1, Escalations: 1, ExactCDFHits: 1, ClosedFormHits: 1}},
	} {
		if got := tc.st.Snapshot(); got != tc.want {
			t.Errorf("%s snapshot = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestSamplerStatsNilSafe(t *testing.T) {
	var s *SamplerStats
	s.AddRound(1, 1, 1, 1)
	s.AddMetropolis(true)
	s.AddEscalation()
	s.AddExactCDFHit()
	s.AddClosedFormHit()
	s.RecordTrajectory(1, 0.5)
	if tr := s.Trajectory(); tr != nil {
		t.Fatalf("nil stats trajectory = %v, want nil", tr)
	}
	if snap := s.Snapshot(); snap != (SamplerSnapshot{}) {
		t.Fatalf("nil stats snapshot = %+v, want zero", snap)
	}
}

func TestAcceptRate(t *testing.T) {
	if _, ok := (SamplerSnapshot{}).AcceptRate(); ok {
		t.Fatal("zero-attempt snapshot reported an accept rate")
	}
	rate, ok := (SamplerSnapshot{RejectionAttempts: 8, RejectionAccepts: 2}).AcceptRate()
	if !ok || rate != 0.25 {
		t.Fatalf("AcceptRate = %v, %v; want 0.25, true", rate, ok)
	}
}

func TestTrajectoryBounded(t *testing.T) {
	s := &SamplerStats{}
	for i := 0; i < 3*maxTrajectory; i++ {
		s.RecordTrajectory(i, 1/float64(i+1))
	}
	tr := s.Trajectory()
	if len(tr) != maxTrajectory {
		t.Fatalf("trajectory length %d, want %d", len(tr), maxTrajectory)
	}
	if tr[0].N != 0 {
		t.Fatalf("trajectory head %+v, want the first recorded point", tr[0])
	}
	// Trajectory recording stays on the called set: no parent propagation
	// (a per-operator epsilon curve summed across operators is meaningless).
	child := &SamplerStats{Parent: s}
	child.RecordTrajectory(99, 0.1)
	if len(s.Trajectory()) != maxTrajectory {
		t.Fatal("child trajectory point leaked into parent")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 8, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("count %d, want 6", snap.Count)
	}
	if snap.Sum != 114 {
		t.Fatalf("sum %g, want 114", snap.Sum)
	}
	// Cumulative per upper bound: le=1 holds {0.5, 1}, le=2 adds {1.5},
	// le=4 adds {3}; +Inf (snap.Count) adds {8, 100}.
	want := []int64{2, 3, 4}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket le=%g count %d, want %d", snap.Bounds[i], snap.Counts[i], w)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != 8000 {
		t.Fatalf("count %d, want 8000", snap.Count)
	}
	var wantSum float64
	for i := 0; i < 1000; i++ {
		wantSum += float64(i % 200)
	}
	if snap.Sum != 8*wantSum {
		t.Fatalf("sum %g, want %g", snap.Sum, 8*wantSum)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 4, 3)
	want := []float64{1, 4, 16}
	if len(b) != len(want) {
		t.Fatalf("bounds %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds %v, want %v", b, want)
		}
	}
}

func TestQueryStatsSpans(t *testing.T) {
	q := NewQueryStats("SELECT 1", nil)
	endPlan := q.StartPhase("plan")
	endRewrite := q.StartPhase("rewrite")
	endRewrite()
	endPlan()
	q.AddPhase("parse", 3*time.Millisecond)

	phases := q.Phases()
	if len(phases) != 3 {
		t.Fatalf("phases %v, want 3 spans", phases)
	}
	// Spans land in completion order; depth records nesting at start time.
	if phases[0].Name != "rewrite" || phases[0].Depth != 1 {
		t.Fatalf("first completed span %+v, want rewrite at depth 1", phases[0])
	}
	if phases[1].Name != "plan" || phases[1].Depth != 0 {
		t.Fatalf("second completed span %+v, want plan at depth 0", phases[1])
	}
	if phases[2].Name != "parse" || phases[2].Duration != 3*time.Millisecond {
		t.Fatalf("third span %+v, want pre-measured parse", phases[2])
	}
	if phases[1].Duration < phases[0].Duration {
		t.Fatal("outer span shorter than the span it encloses")
	}
}

func TestQueryStatsNilSafe(t *testing.T) {
	var q *QueryStats
	q.StartPhase("plan")() // the returned closer must also be callable
	q.AddPhase("parse", time.Millisecond)
	if p := q.Phases(); p != nil {
		t.Fatalf("nil query stats phases = %v, want nil", p)
	}
}

func TestEngineStatsLastQuery(t *testing.T) {
	var es EngineStats
	if es.LastQuery() != nil || es.Queries() != 0 {
		t.Fatal("fresh engine stats not empty")
	}
	q1 := NewQueryStats("one", &es.Sampler)
	q2 := NewQueryStats("two", &es.Sampler)
	es.ObserveQuery(q1)
	es.ObserveQuery(q2)
	if es.Queries() != 2 {
		t.Fatalf("queries %d, want 2", es.Queries())
	}
	if got := es.LastQuery(); got != q2 {
		t.Fatalf("last query %v, want the most recent", got)
	}
	// Query-scope counters roll up into the engine scope via the chain.
	q2.Sampler.AddRound(1, 7, 0, 0)
	if es.Sampler.Snapshot().Samples != 7 {
		t.Fatal("query samples did not roll up to the engine scope")
	}
}
