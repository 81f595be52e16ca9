package sampler

import (
	"testing"

	"pip/internal/cond"
	"pip/internal/dist"
	"pip/internal/expr"
)

// The kernel's own layer benchmark and its allocation guard: the three hot
// loops — a rejection batch of the group engine, a world-engine batch, the
// Metropolis walk — on the smallest unit that exercises each (two Normal
// variables, one two-variable atom).

// kernelGroup is X + Y > cut over X ~ N(0,1), Y ~ N(1,2), with target X*Y.
func kernelGroup(cut float64) (cond.Group, expr.Expr) {
	x := &expr.Variable{Key: expr.VarKey{ID: 1}, Dist: dist.MustInstance(dist.Normal{}, 0, 1)}
	y := &expr.Variable{Key: expr.VarKey{ID: 2}, Dist: dist.MustInstance(dist.Normal{}, 1, 2)}
	c := cond.Clause{cond.NewAtom(expr.Add(expr.NewVar(x), expr.NewVar(y)), cond.GT, expr.Const(cut))}
	return cond.Partition(c, nil)[0], expr.Mul(expr.NewVar(x), expr.NewVar(y))
}

func kernelConfig() *Config {
	cfg := DefaultConfig()
	cfg.WorldSeed = 42
	cfg.Workers = 1
	return &cfg
}

// rejectionKernel returns a closure running one 64-sample runBatch (≈ 2.4
// candidates per accepted sample) on a warmed engine.
func rejectionKernel(tb testing.TB) func() {
	g, e := kernelGroup(2)
	cfg := kernelConfig()
	gs, err := newGroupSampler(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ge, err := newGroupEngine(cfg, []*groupSampler{gs}, e, false)
	if err != nil {
		tb.Fatal(err)
	}
	if ge.sequential {
		tb.Fatal("kernel group pre-escalated; the rejection loop is not what is measured")
	}
	sc := ge.workerScratch(0)
	res := groupBatch{counts: make([]groupCounts, 1)}
	start := 0
	return func() {
		res.acc = Accumulator{}
		ge.runBatch(sc, start, sampleBatchSize, &res)
		if res.failedAt >= 0 || res.acc.N != sampleBatchSize {
			tb.Fatalf("batch at %d drew %d samples", start, res.acc.N)
		}
		start += sampleBatchSize
	}
}

// worldKernel returns a closure running one 64-attempt world-engine batch:
// the conf() candidate stream of the same group.
func worldKernel(tb testing.TB) func() {
	g, _ := kernelGroup(2)
	cfg := kernelConfig()
	gs, err := newGroupSampler(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	we := gs.indicatorEngine()
	sc := we.workerScratch(0)
	start := 0
	return func() {
		var r worldBatch
		we.runBatch(sc, start, sampleBatchSize, false, &r)
		if r.attempts != sampleBatchSize {
			tb.Fatalf("batch at %d made %d attempts", start, r.attempts)
		}
		start += sampleBatchSize
	}
}

// metropolisKernel returns a closure taking 64 walk steps of a burnt-in
// chain on the deep tail of the same group.
func metropolisKernel(tb testing.TB) func() {
	g, _ := kernelGroup(9)
	cfg := kernelConfig()
	gs, err := newGroupSampler(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	m := newMetroState(gs, 0)
	if m == nil {
		tb.Fatal("no Metropolis chain for the kernel group")
	}
	return func() {
		for i := 0; i < sampleBatchSize; i++ {
			m.walkStep()
		}
	}
}

// TestKernelLoopsDoNotAllocate: once warmed, the three hot loops run
// entirely in caller-owned scratch.
func TestKernelLoopsDoNotAllocate(t *testing.T) {
	for _, k := range []struct {
		name string
		mk   func(testing.TB) func()
	}{
		{"runBatch (rejection)", rejectionKernel},
		{"world batch", worldKernel},
		{"walkStep", metropolisKernel},
	} {
		run := k.mk(t)
		run() // warm: lazily built scratch, first-use paths
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%s: %v allocations per 64-sample loop, want 0", k.name, allocs)
		}
	}
}

func benchKernel(b *testing.B, mk func(testing.TB) func()) {
	run := mk(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sampleBatchSize), "ns/sample")
}

// BenchmarkKernelRejection times accepted samples of the group engine's
// rejection loop (draw plan, compiled atoms, column write, EvalBatch).
func BenchmarkKernelRejection(b *testing.B) { benchKernel(b, rejectionKernel) }

// BenchmarkKernelWorld times attempts of the world engine (conf()'s stream).
func BenchmarkKernelWorld(b *testing.B) { benchKernel(b, worldKernel) }

// BenchmarkKernelMetropolis times walk steps of a burnt-in chain.
func BenchmarkKernelMetropolis(b *testing.B) { benchKernel(b, metropolisKernel) }
