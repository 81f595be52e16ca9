package core

import (
	"math"
	"testing"

	"pip/internal/cond"
	"pip/internal/ctable"
	"pip/internal/dist"
	"pip/internal/expr"
	"pip/internal/sampler"
)

func testDB() *DB {
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = 31415
	return NewDB(cfg)
}

func TestCreateVariable(t *testing.T) {
	db := testDB()
	v1, err := db.CreateVariable("Normal", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.CreateVariable("normal", 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Key.ID == v2.Key.ID {
		t.Fatal("variable ids not unique")
	}
	if _, err := db.CreateVariable("NoSuchDist", 1); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := db.CreateVariable("Normal", 1); err == nil {
		t.Fatal("bad parameters accepted")
	}
}

func TestCreateJointVariables(t *testing.T) {
	db := testDB()
	l, err := dist.CholeskyFromCovariance([][]float64{{1, 0.5}, {0.5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst := dist.MustInstance(dist.MVNormal{}, dist.MVNormalParams([]float64{0, 1}, l)...)
	vars, err := db.CreateJointVariables(inst, "pos")
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0].Key.ID != vars[1].Key.ID || vars[0].Key.Subscript == vars[1].Key.Subscript {
		t.Fatalf("joint vars malformed: %v", vars)
	}
	uni := dist.MustInstance(dist.Normal{}, 0, 1)
	if _, err := db.CreateJointVariables(uni, "x"); err == nil {
		t.Fatal("univariate accepted as joint")
	}
}

func TestCatalog(t *testing.T) {
	db := testDB()
	tb := ctable.New("Orders", "id", "price")
	db.Register(tb)
	got, err := db.Table("orders") // case-insensitive
	if err != nil || got != tb {
		t.Fatalf("Table lookup: %v", err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Fatal("missing table lookup succeeded")
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "orders" {
		t.Fatalf("names %v", names)
	}
	db.Drop("Orders")
	if _, err := db.Table("orders"); err == nil {
		t.Fatal("dropped table still present")
	}
}

func TestMaterializeIsDeepCopy(t *testing.T) {
	db := testDB()
	tb := ctable.New("src", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Float(1)))
	view := db.Materialize("view1", tb)
	tb.Tuples[0].Values[0] = ctable.Float(99)
	if view.Tuples[0].Values[0].F != 1 {
		t.Fatal("materialized view aliases source data")
	}
	if _, err := db.Table("view1"); err != nil {
		t.Fatal("view not registered")
	}
}

func TestConfAndExpectationHelpers(t *testing.T) {
	db := testDB()
	v, _ := db.CreateVariable("Uniform", 0, 1)
	tup := ctable.NewTuple(ctable.Symbolic(expr.NewVar(v)))
	tup.Cond = cond.FromClause(cond.Clause{
		cond.NewAtom(expr.NewVar(v), cond.LT, expr.Const(0.25)),
	})
	r := db.Conf(&tup)
	if !r.Exact || math.Abs(r.Prob-0.25) > 1e-12 {
		t.Fatalf("conf %v exact=%v", r.Prob, r.Exact)
	}
	er, err := db.Expectation(&tup, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	// E[U | U < .25] = .125.
	if math.Abs(er.Mean-0.125) > 0.01 {
		t.Fatalf("mean %v", er.Mean)
	}
}

func TestHistogram(t *testing.T) {
	db := testDB()
	v, _ := db.CreateVariable("Normal", 5, 1)
	tb := ctable.New("t", "v")
	tb.MustAppend(ctable.NewTuple(ctable.Symbolic(expr.NewVar(v))))
	hist, err := db.Sampler().AggregateHistogram(tb, 0, sampler.SumFold, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1000 {
		t.Fatalf("hist len %d", len(hist))
	}
}

func TestSessionSharesCatalog(t *testing.T) {
	db := testDB()
	tb := ctable.New("shared", "v")
	db.Register(tb)
	sess := db.Session()
	if got, err := sess.Table("shared"); err != nil || got != tb {
		t.Fatalf("catalog not shared: %v", err)
	}
	sess.UpdateConfig(func(c *sampler.Config) { c.FixedSamples = 10 })
	if sess.Config().FixedSamples != 10 {
		t.Fatal("config not applied")
	}
	if db.Config().FixedSamples == 10 {
		t.Fatal("session config leaked into the parent handle")
	}
	sess.Register(ctable.New("fromsession", "v"))
	if _, err := db.Table("fromsession"); err != nil {
		t.Fatal("session DDL not visible to the parent handle")
	}
}

func TestRunningExampleEndToEnd(t *testing.T) {
	// The full §1.1 query: expected loss due to late deliveries to Joe.
	db := testDB()
	price, _ := db.CreateVariable("Normal", 100, 10)  // X1
	nyDur, _ := db.CreateVariable("Normal", 5, 2)     // X2
	bobPrice, _ := db.CreateVariable("Normal", 80, 5) // X3
	laDur, _ := db.CreateVariable("Normal", 4, 1)     // X4

	order := ctable.New("Order", "Cust", "ShipTo", "Price")
	order.MustAppend(ctable.NewTuple(ctable.String_("Joe"), ctable.String_("NY"), ctable.Symbolic(expr.NewVar(price))))
	order.MustAppend(ctable.NewTuple(ctable.String_("Bob"), ctable.String_("LA"), ctable.Symbolic(expr.NewVar(bobPrice))))
	shipping := ctable.New("Shipping", "Dest", "Duration")
	shipping.MustAppend(ctable.NewTuple(ctable.String_("NY"), ctable.Symbolic(expr.NewVar(nyDur))))
	shipping.MustAppend(ctable.NewTuple(ctable.String_("LA"), ctable.Symbolic(expr.NewVar(laDur))))
	db.Register(order)
	db.Register(shipping)

	joe, err := ctable.Select(order, ctable.Compare{Op: cond.EQ, Left: ctable.Col(0), Right: ctable.LitString("Joe")})
	if err != nil {
		t.Fatal(err)
	}
	late, err := ctable.Select(shipping, ctable.Compare{Op: cond.GE, Left: ctable.Col(1), Right: ctable.LitFloat(7)})
	if err != nil {
		t.Fatal(err)
	}
	joined, err := ctable.Select(ctable.Product(joe, late), ctable.Compare{Op: cond.EQ, Left: ctable.Col(1), Right: ctable.Col(3)})
	if err != nil {
		t.Fatal(err)
	}
	result, err := ctable.Project(joined, []string{"Price"}, []ctable.Scalar{ctable.Col(2)})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := db.Sampler().ExpectedSum(result, 0)
	if err != nil {
		t.Fatal(err)
	}
	// E[X1] * P[X2 >= 7]: price independent of duration.
	wantP := 1 - 0.5*math.Erfc(-(7.0-5)/(2*math.Sqrt2))
	want := 100 * wantP
	if math.Abs(agg.Value-want) > want*0.1 {
		t.Fatalf("expected loss %v, want ~%v", agg.Value, want)
	}
}
