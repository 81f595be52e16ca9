package sampler_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"pip"
	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/obs"
	"pip/internal/prng"
	"pip/internal/sampler"
	"pip/internal/sql"
	"pip/internal/tpch"
)

// The frozen-bits corpus. Every other bit-identity test in the repository is
// differential (workers 1 vs N, row vs batch, local vs remote), so a kernel
// change that shifted every answer the same way would pass them all. This
// test pins absolute math.Float64bits of every sampling strategy's answers
// in testdata/golden_bits.json; the file is regenerated only with
//
//	go test ./internal/sampler -run TestGoldenBits -update
//
// and a change that claims bit-identity must pass it unmodified.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_bits.json from the current build")

const goldenPath = "testdata/golden_bits.json"

// goldenWorkers are the worker counts every scenario is recorded at.
var goldenWorkers = []int{1, 4}

// blackBox is a Generate-only class (no PDF, CDF or inverse CDF): the
// MCDB-style VG function that restricts the sampler to natural generation
// and rejection, with no Metropolis escape.
type blackBox struct{}

func (blackBox) Name() string                { return "GoldenBlackBox" }
func (blackBox) CheckParams([]float64) error { return nil }
func (blackBox) Generate(p []float64, r *prng.Rand) float64 {
	return p[0] + p[1]*r.NormFloat64()
}

// pdfOnly has a density but no CDF: bounded intervals cannot be inverted,
// so constrained draws reject, and Metropolis remains available.
type pdfOnly struct{ blackBox }

func (pdfOnly) Name() string { return "GoldenPDFOnly" }
func (pdfOnly) PDF(p []float64, x float64) float64 {
	return dist.Normal{}.PDF(p, x)
}

type goldenScenario struct {
	name string
	// cfg adjusts the default configuration (seed 12345) before the run.
	cfg func(*sampler.Config)
	run func(t *testing.T, s *sampler.Sampler) []float64
}

func gv(id uint64, sub int, class dist.Class, params ...float64) *expr.Variable {
	return &expr.Variable{Key: expr.VarKey{ID: id, Subscript: sub}, Dist: dist.MustInstance(class, params...)}
}

func resultBits(r sampler.Result) []float64 {
	um := 0.0
	if r.UsedMetropolis {
		um = 1
	}
	ex := 0.0
	if r.Exact {
		ex = 1
	}
	return []float64{r.Mean, r.Prob, r.StdErr, float64(r.N), um, ex}
}

func mvParams(t *testing.T) []float64 {
	t.Helper()
	chol, err := dist.CholeskyFromCovariance([][]float64{
		{4, 1.2, 0.5},
		{1.2, 2, -0.3},
		{0.5, -0.3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dist.MVNormalParams([]float64{1, -2, 0.5}, chol)
}

func goldenTable() *ctable.Table {
	tb := ctable.New("agg", "val")
	for i := 0; i < 40; i++ {
		mu := float64(i%7) + 1
		v := gv(uint64(100+i), 0, dist.Normal{}, mu, 1)
		g := gv(uint64(200+i), 0, dist.Exponential{}, 0.5)
		// Every fifth row shares its guard with the previous row, so the
		// world sampler's cross-row consistency is in the corpus.
		if i%5 == 4 {
			g = gv(uint64(200+i-1), 0, dist.Exponential{}, 0.5)
		}
		cell := expr.Add(expr.Mul(expr.NewVar(v), expr.NewVar(v)), expr.NewVar(g))
		if i%2 == 0 {
			cell = expr.NewVar(v)
		}
		tup := ctable.NewTuple(ctable.Symbolic(cell))
		tup.Cond = cond.FromClause(cond.Clause{
			cond.NewAtom(expr.NewVar(g), cond.GT, expr.Const(float64(i%3))),
		})
		if i%9 == 0 {
			tup.Cond = tup.Cond.Or(cond.FromClause(cond.Clause{
				cond.NewAtom(expr.NewVar(v), cond.LT, expr.NewVar(g)),
			}))
		}
		tb.MustAppend(tup)
	}
	return tb
}

// detTable has deterministic targets under independent probabilistic row
// conditions: the sorted early-terminating expected_max path.
func detTable() *ctable.Table {
	tb := ctable.New("det", "val")
	for i := 0; i < 12; i++ {
		a := gv(uint64(300+2*i), 0, dist.Normal{}, float64(i%4), 1.5)
		b := gv(uint64(301+2*i), 0, dist.Exponential{}, 0.4)
		tup := ctable.NewTuple(ctable.Float(float64(3*i%11) + 0.5))
		tup.Cond = cond.FromClause(cond.Clause{
			cond.NewAtom(expr.NewVar(a), cond.GT, expr.NewVar(b)),
		})
		tb.MustAppend(tup)
	}
	return tb
}

func goldenScenarios() []goldenScenario {
	nv := func(id uint64, mu, sigma float64) *expr.Variable { return gv(id, 0, dist.Normal{}, mu, sigma) }
	ev := func(id uint64, rate float64) *expr.Variable { return gv(id, 0, dist.Exponential{}, rate) }
	return []goldenScenario{
		{name: "exact-cdf-truncated-normal", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			y := nv(1, 5, 3)
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(-3)),
				cond.NewAtom(expr.NewVar(y), cond.LT, expr.Const(2)),
			}
			out := resultBits(s.Expectation(expr.Mul(expr.NewVar(y), expr.NewVar(y)), c, true))
			return append(out, resultBits(s.Conf(c))...)
		}},
		{name: "two-var-rejection", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			d, sv := ev(2, 1.0/40), ev(3, 1.0/760)
			e := expr.Sub(expr.NewVar(d), expr.NewVar(sv))
			c := cond.Clause{cond.NewAtom(expr.NewVar(d), cond.GT, expr.NewVar(sv))}
			out := resultBits(s.Expectation(e, c, true))
			return append(out, resultBits(s.Conf(c))...)
		}},
		{name: "cdf-restricted-rejection", cfg: func(c *sampler.Config) { c.FixedSamples = 700; c.WorldSeed = 999 },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				y, z := nv(1, 5, 3), ev(2, 0.1)
				e := expr.Mul(expr.NewVar(y), expr.NewVar(z))
				c := cond.Clause{
					cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(4)),
					cond.NewAtom(expr.NewVar(z), cond.GT, expr.NewVar(y)),
				}
				return resultBits(s.Expectation(e, c, true))
			}},
		{name: "independent-groups", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			x, y, z := nv(4, 0, 1), nv(5, 10, 2), ev(6, 0.25)
			p, q := ev(60, 1), ev(61, 2)
			e := expr.Add(expr.NewVar(x), expr.NewVar(y))
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0)),
				cond.NewAtom(expr.NewVar(z), cond.LT, expr.Const(3)),
				cond.NewAtom(expr.NewVar(p), cond.LT, expr.NewVar(q)),
			}
			return resultBits(s.Expectation(e, c, true))
		}},
		{name: "nonlinear-atoms", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			x, y := nv(62, 1, 1), nv(63, 0, 2)
			xy := expr.Mul(expr.NewVar(x), expr.NewVar(y))
			c := cond.Clause{
				cond.NewAtom(xy, cond.GT, expr.Const(0.5)),
				cond.NewAtom(expr.Div(expr.NewVar(x), expr.Add(expr.NewVar(y), expr.Const(3))), cond.LE, expr.Const(2)),
				cond.NewAtom(expr.Negate(expr.NewVar(y)), cond.NEQ, expr.NewVar(x)),
			}
			return resultBits(s.Expectation(expr.Add(xy, expr.NewVar(x)), c, true))
		}},
		// A+B > 6 is a linear-Gaussian group: without DisableClosedForm it
		// is answered exactly and never reaches the walk.
		{name: "metropolis-pre-escalation", cfg: func(c *sampler.Config) { c.DisableClosedForm = true },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				a, b := nv(7, 0, 1), nv(8, 0, 1)
				e := expr.Add(expr.NewVar(a), expr.NewVar(b))
				c := cond.Clause{cond.NewAtom(e, cond.GT, expr.Const(6))}
				return resultBits(s.Expectation(e, c, true))
			}},
		{name: "metropolis-mid-stream-fixed", cfg: func(c *sampler.Config) {
			c.FixedSamples = 300
			c.MetropolisThreshold = 0.9
			c.MetropolisBurnIn = 8000
		}, run: func(t *testing.T, s *sampler.Sampler) []float64 {
			d, sv := ev(64, 1.0/100), ev(65, 1.0/1900)
			e := expr.Sub(expr.NewVar(d), expr.NewVar(sv))
			c := cond.Clause{cond.NewAtom(expr.NewVar(d), cond.GT, expr.NewVar(sv))}
			r := s.Expectation(e, c, true)
			if !r.UsedMetropolis {
				t.Error("scenario no longer escalates mid-stream")
			}
			return resultBits(r)
		}},
		{name: "metropolis-mid-stream-adaptive", cfg: func(c *sampler.Config) {
			c.MetropolisThreshold = 0.9
			c.MetropolisBurnIn = 3000
			c.Delta = 0.01
			c.MaxSamples = 2000
		}, run: func(t *testing.T, s *sampler.Sampler) []float64 {
			d, sv := ev(66, 1.0/100), ev(67, 1.0/1900)
			e := expr.Sub(expr.NewVar(d), expr.NewVar(sv))
			c := cond.Clause{cond.NewAtom(expr.NewVar(d), cond.GT, expr.NewVar(sv))}
			r := s.Expectation(e, c, true)
			if !r.UsedMetropolis {
				t.Error("scenario no longer escalates mid-stream")
			}
			return resultBits(r)
		}},
		{name: "metropolis-pdf-only", cfg: func(c *sampler.Config) { c.FixedSamples = 200 },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				a, b := gv(68, 0, pdfOnly{}, 0, 1), gv(69, 0, pdfOnly{}, 0, 1)
				e := expr.Add(expr.NewVar(a), expr.NewVar(b))
				c := cond.Clause{
					cond.NewAtom(e, cond.GT, expr.Const(5.5)),
					cond.NewAtom(expr.NewVar(a), cond.LT, expr.Const(4)),
				}
				return resultBits(s.Expectation(e, c, true))
			}},
		{name: "black-box-rejection", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			a, b := gv(70, 0, blackBox{}, 1, 2), nv(71, 0, 1)
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(a), cond.GT, expr.Const(2)),
				cond.NewAtom(expr.NewVar(b), cond.LT, expr.NewVar(a)),
			}
			out := resultBits(s.Expectation(expr.Mul(expr.NewVar(a), expr.NewVar(b)), c, true))
			return append(out, resultBits(s.Conf(c))...)
		}},
		{name: "unsatisfiable-cap", cfg: func(c *sampler.Config) {
			c.RejectionCap = 500
			c.DisableMetropolis = true
			c.DisableCDFInversion = true
		}, run: func(t *testing.T, s *sampler.Sampler) []float64 {
			u := gv(72, 0, dist.Uniform{}, 0, 1)
			c := cond.Clause{cond.NewAtom(expr.NewVar(u), cond.GT, expr.Const(1-1e-9))}
			return resultBits(s.Expectation(expr.NewVar(u), c, true))
		}},
		{name: "discrete-variables", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			p := gv(73, 0, dist.Poisson{}, 4.5)
			q := gv(74, 0, dist.DiscreteUniform{}, 1, 9)
			b := gv(75, 0, dist.Bernoulli{}, 0.3)
			k := gv(76, 0, dist.Categorical{}, 0.2, 0.5, 0.3)
			e := expr.Add(expr.Mul(expr.NewVar(p), expr.NewVar(p)), expr.Mul(expr.NewVar(q), expr.NewVar(k)))
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(p), cond.GE, expr.Const(2)),
				cond.NewAtom(expr.NewVar(p), cond.LE, expr.Const(9)),
				cond.NewAtom(expr.NewVar(q), cond.GT, expr.NewVar(p)),
				cond.NewAtom(expr.NewVar(k), cond.EQ, expr.Const(1)),
				cond.NewAtom(expr.NewVar(b), cond.EQ, expr.Const(0)),
			}
			out := resultBits(s.Expectation(e, c, true))
			return append(out, resultBits(s.Conf(c))...)
		}},
		// c2 bounds one linear form of the joint's components, which the
		// closed forms would answer without sampling.
		{name: "mvnormal-group", cfg: func(c *sampler.Config) { c.DisableClosedForm = true },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				pr := mvParams(t)
				m0, m1, m2 := gv(77, 0, dist.MVNormal{}, pr...), gv(77, 1, dist.MVNormal{}, pr...), gv(77, 2, dist.MVNormal{}, pr...)
				x := nv(78, 0, 1)
				e := expr.Add(expr.Mul(expr.NewVar(m1), expr.NewVar(m2)), expr.NewVar(m0))
				c := cond.Clause{
					cond.NewAtom(expr.NewVar(m2), cond.GT, expr.NewVar(x)),
					cond.NewAtom(expr.NewVar(m1), cond.LT, expr.Const(0)),
				}
				out := resultBits(s.Expectation(e, c, true))
				out = append(out, resultBits(s.Conf(c))...)
				// Subscript 0 never mentioned: Partition materialises it.
				c2 := cond.Clause{cond.NewAtom(expr.NewVar(m2), cond.GT, expr.NewVar(m1))}
				return append(out, resultBits(s.Expectation(expr.NewVar(m2), c2, true))...)
			}},
		{name: "dnf-world-sample", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			x, y := nv(9, 0, 1), nv(10, 1, 1)
			d := cond.Condition{Clauses: []cond.Clause{
				{cond.NewAtom(expr.NewVar(x), cond.GT, expr.Const(0.5))},
				{cond.NewAtom(expr.NewVar(y), cond.LT, expr.Const(0))},
			}}
			return resultBits(s.ExpectationDNF(expr.Add(expr.NewVar(x), expr.NewVar(y)), d, true))
		}},
		{name: "dnf-world-sample-fixed-mv", cfg: func(c *sampler.Config) { c.FixedSamples = 500; c.WorldSeed = 31 },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				pr := mvParams(t)
				m1, m2 := gv(79, 1, dist.MVNormal{}, pr...), gv(79, 2, dist.MVNormal{}, pr...)
				p := gv(80, 0, dist.Poisson{}, 3)
				d := cond.Condition{Clauses: []cond.Clause{
					{cond.NewAtom(expr.NewVar(m1), cond.GT, expr.NewVar(m2))},
					{cond.NewAtom(expr.NewVar(p), cond.GE, expr.Const(5)), cond.NewAtom(expr.NewVar(m2), cond.LT, expr.Const(1))},
				}}
				e := expr.Add(expr.Mul(expr.NewVar(m1), expr.NewVar(p)), expr.NewVar(m2))
				return resultBits(s.ExpectationDNF(e, d, true))
			}},
		{name: "aconf-inclusion-exclusion", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			x, y := ev(11, 0.5), ev(12, 0.5)
			d := cond.Condition{Clauses: []cond.Clause{
				{cond.NewAtom(expr.NewVar(x), cond.GT, expr.NewVar(y))},
				{cond.NewAtom(expr.NewVar(x), cond.LT, expr.Const(1))},
			}}
			return resultBits(s.AConf(d))
		}},
		{name: "aconf-many-clauses", cfg: func(c *sampler.Config) { c.MaxSamples = 2000 },
			run: func(t *testing.T, s *sampler.Sampler) []float64 {
				var d cond.Condition
				for i := 0; i < 13; i++ {
					a, b := nv(uint64(400+2*i), float64(i%3), 1), ev(uint64(401+2*i), 0.7)
					d.Clauses = append(d.Clauses, cond.Clause{
						cond.NewAtom(expr.NewVar(a), cond.GT, expr.Add(expr.NewVar(b), expr.Const(2))),
					})
				}
				return resultBits(s.AConf(d))
			}},
		{name: "expectation-histogram", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			y, z := nv(13, 2, 1), ev(130, 1)
			c := cond.Clause{
				cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(1)),
				cond.NewAtom(expr.NewVar(z), cond.LT, expr.NewVar(y)),
			}
			vals, err := s.ExpectationHistogram(expr.Mul(expr.NewVar(y), expr.NewVar(z)), c, 300)
			if err != nil {
				t.Fatal(err)
			}
			return vals
		}},
		{name: "variance-moment", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			y := nv(14, 3, 2)
			c := cond.Clause{cond.NewAtom(expr.NewVar(y), cond.GT, expr.Const(2))}
			v := s.Variance(expr.NewVar(y), c)
			m := s.Moment(expr.NewVar(y), c, 2)
			return []float64{v.Variance, v.Mean, m.Moment, float64(m.N)}
		}},
		{name: "aggregates", run: func(t *testing.T, s *sampler.Sampler) []float64 {
			tb := goldenTable()
			var out []float64
			add := func(r sampler.AggregateResult, err error) {
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, r.Value, float64(r.N), float64(r.RowsScanned))
			}
			add(s.ExpectedSum(tb, 0))
			add(s.ExpectedCount(tb))
			add(s.ExpectedAvg(tb, 0))
			add(s.ExpectedMax(tb, 0, 0.01))
			add(s.ExpectedMaxNaive(tb, 0))
			add(s.ExpectedMax(detTable(), 0, 0.01))
			for _, fold := range []sampler.FoldFunc{sampler.SumFold, sampler.StdDevFold} {
				hist, err := s.AggregateHistogram(tb, 0, fold, 200)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, hist...)
			}
			return out
		}},
	}
}

// sqlScenarios are the four sampled-agg statements of the benchmark over
// its catalog (tpch.Generate(DefaultScale(), 1), engine seed 1), at three of
// the workload's keys each.
var sqlScenarios = []struct {
	name, text string
	keys       []int64
}{
	{"sql-nonlinear-sum", "SELECT expected_sum(morders*morders + morders*price) FROM customers WHERE cust > ?", []int64{260, 350, 470}},
	{"sql-group-stddev", "SELECT nation, expected_stddev(manuf + ship) FROM suppliers WHERE supp > ? GROUP BY nation", []int64{40, 55, 75}},
	{"sql-conf", "SELECT supp, conf() FROM suppliers WHERE manuf + ship > 12 AND supp > ?", []int64{60, 75, 95}},
	{"sql-rejection", "SELECT supp, expectation(manuf) FROM suppliers WHERE manuf + ship > 22 AND supp > ?", []int64{76, 85, 97}},
}

func loadBenchCatalog(t *testing.T, workers int) *pip.DB {
	t.Helper()
	db := pip.Open(pip.Options{Seed: 1, Workers: workers})
	d := tpch.Generate(tpch.DefaultScale(), 1)
	db.MustExec("CREATE TABLE customers (cust, price, morders)")
	db.MustExec("CREATE TABLE suppliers (supp, nation, manuf, ship)")
	for _, cu := range d.Customers {
		db.MustExec("INSERT INTO customers VALUES (?, ?, CREATE_VARIABLE('Poisson', ?))",
			int64(cu.CustKey), cu.AvgOrderPrice, cu.GrowthRate()*10)
	}
	for _, su := range d.Suppliers {
		db.MustExec("INSERT INTO suppliers VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))",
			int64(su.SuppKey), su.Nation, su.ManufMean, su.ManufStd, su.ShipMean, su.ShipStd)
	}
	return db
}

// tableBits flattens a result table: row count, then every numeric cell in
// row-major order (string cells contribute their length).
func tableBits(tb *ctable.Table) []float64 {
	out := []float64{float64(len(tb.Tuples))}
	for _, tup := range tb.Tuples {
		for _, v := range tup.Values {
			if f, ok := v.AsFloat(); ok {
				out = append(out, f)
			} else {
				out = append(out, float64(len(v.S)))
			}
		}
	}
	return out
}

func computeGolden(t *testing.T) map[string][]string {
	got := map[string][]string{}
	// Every entry ends with the draw counts that prove "same worlds": the
	// accepted samples and every rejection attempt/accept the engine
	// recorded between the two snapshots.
	put := func(name string, workers int, vals []float64, before, after obs.SamplerSnapshot) {
		vals = append(vals,
			float64(after.Samples-before.Samples),
			float64(after.RejectionAttempts-before.RejectionAttempts),
			float64(after.RejectionAccepts-before.RejectionAccepts))
		hex := make([]string, len(vals))
		for i, v := range vals {
			hex[i] = "0x" + strconv.FormatUint(math.Float64bits(v), 16)
		}
		got[fmt.Sprintf("%s/workers=%d", name, workers)] = hex
	}
	for _, workers := range goldenWorkers {
		for _, sc := range goldenScenarios() {
			cfg := sampler.DefaultConfig()
			cfg.WorldSeed = 12345
			cfg.Workers = workers
			if sc.cfg != nil {
				sc.cfg(&cfg)
			}
			st := &obs.SamplerStats{}
			vals := sc.run(t, sampler.New(cfg).WithStats(st))
			put(sc.name, workers, vals, obs.SamplerSnapshot{}, st.Snapshot())
		}
		db := loadBenchCatalog(t, workers)
		engine := &db.Core().Stats().Sampler
		for _, sc := range sqlScenarios {
			p, err := sql.Prepare(sc.text)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range sc.keys {
				before := engine.Snapshot()
				tb, err := p.ExecContext(context.Background(), db.Core(), ctable.Int(key))
				if err != nil {
					t.Fatalf("%s key %d: %v", sc.name, key, err)
				}
				put(fmt.Sprintf("%s/key=%d", sc.name, key), workers, tableBits(tb), before, engine.Snapshot())
			}
		}
	}
	return got
}

func TestGoldenBits(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it on the parent commit with -update)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: recorded but no longer computed", name)
			continue
		}
		if len(g) != len(want[name]) {
			t.Errorf("%s: %d values, recorded %d", name, len(g), len(want[name]))
			continue
		}
		for i := range g {
			if g[i] != want[name][i] && !bothNaN(g[i], want[name][i]) {
				t.Errorf("%s: value %d = %s, recorded %s", name, i, g[i], want[name][i])
				break
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: computed but not recorded (regenerate on the parent commit with -update)", name)
		}
	}
}

// bothNaN treats every NaN payload as equal (IEEE 754 leaves propagated
// payloads unspecified; see internal/expr/program.go).
func bothNaN(a, b string) bool {
	pa, errA := strconv.ParseUint(a[2:], 16, 64)
	pb, errB := strconv.ParseUint(b[2:], 16, 64)
	return errA == nil && errB == nil && math.IsNaN(math.Float64frombits(pa)) && math.IsNaN(math.Float64frombits(pb))
}
