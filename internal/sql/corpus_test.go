package sql

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/ctable"
	"pip/internal/iceberg"
	"pip/internal/sampler"
	"pip/internal/tpch"
)

// The bit-identity harness for the relational engine. It seeds one catalog
// from the paper's evaluation generators (synthetic TPC-H and the iceberg
// scenario, §VI), runs a query corpus through the physical operators, and
// holds every query's complete observable output — rendered result table
// (values, sampled moments, conditions, row order, schema) and per-operator
// EXPLAIN ANALYZE row counts — against two independent references:
//
//   - the naive eager evaluator of oracle_test.go, for the rendered rows;
//   - testdata/*_golden.json, recorded from the row-at-a-time engine on the
//     last commit that had one, for the rows and the per-operator rows=.
//
// Float comparison rides on ctable.Value.String, which renders every NaN
// payload as "NaN" — the one place bit-identity is deliberately relaxed,
// since IEEE 754 leaves propagated-NaN payloads unspecified (see
// internal/expr/program.go).
//
// The goldens are regenerated only with
//
//	go test ./internal/sql -run 'TestCorpusGolden|TestVecBatchBoundaries' -update
//
// and a change that claims the engine's answers did not move must pass
// them unmodified.

var updateGolden = flag.Bool("update", false, "rewrite testdata/*_golden.json from the current build")

// corpusSeed fixes the world seed and generator seeds so every run of the
// harness samples identical worlds.
const corpusSeed = 20100301

const corpusSamples = 200

// seedCorpusDB builds the harness catalog: TPC-H-shaped tables (customers
// with the Q1/Q3 growth and delivery models, suppliers with the Q2 duration
// models, historical orders) plus the iceberg scenario (symbolic sighting
// positions, deterministic ships). All symbolic cells allocate through SQL
// CREATE_VARIABLE, so two databases seeded identically allocate identical
// variables and sample identical worlds.
func seedCorpusDB(t *testing.T, workers int) *core.DB {
	t.Helper()
	cfg := sampler.DefaultConfig()
	cfg.WorldSeed = corpusSeed
	cfg.FixedSamples = corpusSamples
	cfg.Workers = workers
	db := core.NewDB(cfg)

	exec := func(q string, args ...ctable.Value) {
		t.Helper()
		if _, err := ExecContext(context.Background(), db, q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	f := ctable.Float
	s := ctable.String_

	data := tpch.Generate(tpch.SmallScale(), 1)
	exec("CREATE TABLE customers (cust, name, growth, price, thresh, delivery, orders)")
	for _, c := range data.Customers[:12] {
		sup := data.Suppliers[c.CustKey%len(data.Suppliers)]
		mu := sup.ManufMean + sup.ShipMean
		sigma := sup.ManufStd + sup.ShipStd
		exec("INSERT INTO customers VALUES (?, ?, ?, ?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Poisson', ?))",
			f(float64(c.CustKey)), s(c.Name), f(c.GrowthRate()), f(c.AvgOrderPrice),
			f(c.SatisfactionThreshold), f(mu), f(sigma), f(c.GrowthRate()*10))
	}
	exec("CREATE TABLE suppliers (supp, nation, manuf, ship)")
	for _, sup := range data.Suppliers[:8] {
		exec("INSERT INTO suppliers VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))",
			f(float64(sup.SuppKey)), s(sup.Nation), f(sup.ManufMean), f(sup.ManufStd), f(sup.ShipMean), f(sup.ShipStd))
	}
	exec("CREATE TABLE orders (okey, cust, price)")
	for _, o := range data.Orders[:30] {
		exec("INSERT INTO orders VALUES (?, ?, ?)",
			f(float64(o.OrderKey)), f(float64(o.CustKey)), f(o.Price))
	}

	berg := iceberg.Generate(8, 3, corpusSeed)
	exec("CREATE TABLE sightings (berg, danger, plat, plon)")
	for _, sg := range berg.Sightings {
		std := sg.PositionStd()
		exec("INSERT INTO sightings VALUES (?, ?, CREATE_VARIABLE('Normal', ?, ?), CREATE_VARIABLE('Normal', ?, ?))",
			f(float64(sg.IcebergID)), f(sg.Danger()), f(sg.Lat), f(std), f(sg.Lon), f(std))
	}
	exec("CREATE TABLE ships (ship, lat, lon)")
	for _, sh := range berg.Ships {
		exec("INSERT INTO ships VALUES (?, ?, ?)",
			f(float64(sh.ShipID)), f(sh.Lat), f(sh.Lon))
	}
	return db
}

// corpus returns the query corpus: the planner-equivalence shapes (scans,
// filters, joins, DISTINCT, ORDER BY, LIMIT, constant folding) plus SQL
// renderings of the paper's TPC-H evaluation queries (Q1-Q3 analogues) and
// the iceberg danger query, exercising every sampled moment the engine
// exposes (expectation, variance, stddev, conf, aconf,
// expected_sum/count/avg/max).
func corpus() []string {
	return []string{
		// Planner-equivalence shapes.
		"SELECT * FROM suppliers",
		"SELECT cust, price FROM customers WHERE price > 200",
		"SELECT cust, price * 2 AS pp FROM customers WHERE price > 150 AND price < 400",
		"SELECT name FROM customers WHERE 1 = 0",
		"SELECT growth * 10 AS g FROM customers ORDER BY g DESC LIMIT 3",
		"SELECT DISTINCT nation FROM suppliers",
		"SELECT o.okey, c.name FROM orders o, customers c WHERE o.cust = c.cust ORDER BY o.okey LIMIT 7",
		"SELECT s1.supp, s2.supp AS peer FROM suppliers s1, suppliers s2 WHERE s1.nation = s2.nation AND s1.supp < s2.supp",
		// TPC-H Q1 analogue: predicted revenue increase.
		"SELECT expected_sum(orders * price) AS rev FROM customers",
		"SELECT cust, expectation(orders * price) AS extra FROM customers LIMIT 5",
		// TPC-H Q2 analogue: worst-case delivery among Japanese suppliers.
		"SELECT expected_max(manuf + ship) AS worst FROM suppliers WHERE nation = 'JAPAN'",
		// TPC-H Q3 analogue: profit lost to dissatisfied customers.
		"SELECT expected_sum(orders * price) AS lost FROM customers WHERE delivery > thresh",
		"SELECT cust, variance(orders) AS v, stddev(orders) AS sd FROM customers WHERE delivery > thresh LIMIT 4",
		// Join + grouped aggregates over historical orders.
		"SELECT c.name, expected_count(*) AS n FROM orders o, customers c WHERE o.cust = c.cust AND o.price > 200 GROUP BY c.name ORDER BY c.name",
		"SELECT c.name, expected_avg(o.price) AS avg_price FROM orders o, customers c WHERE o.cust = c.cust GROUP BY c.name ORDER BY c.name",
		// Iceberg danger query: per-pair threat probability, then per-ship.
		"SELECT s.berg, h.ship, conf() AS threat FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5",
		"SELECT h.ship, aconf() AS danger FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5 GROUP BY h.ship ORDER BY h.ship",
	}
}

// corpusResult is one query's complete observable output.
type corpusResult struct {
	// Rows is the result table rendered by ctable.Table.String.
	Rows string `json:"rows"`
	// Plan lists one "Op detail rows=N" line per operator, depth-first —
	// wall times and batch counts excluded, so the lines depend only on how
	// many rows each operator was asked for.
	Plan []string `json:"plan"`
}

// runCorpusQuery executes one query under the hints carried by ctx. The
// query runs twice — once for the rows, once under EXPLAIN ANALYZE for the
// row counts; deferred sampling makes both runs draw identical worlds.
func runCorpusQuery(t *testing.T, ctx context.Context, db *core.DB, q string) corpusResult {
	t.Helper()
	out, err := ExecContext(ctx, db, q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	node, err := ExplainContext(ctx, db, "EXPLAIN ANALYZE "+q)
	if err != nil {
		t.Fatalf("explain %s: %v", q, err)
	}
	return corpusResult{Rows: out.String(), Plan: planRows(node)}
}

// planRows flattens a plan tree into per-operator lines: operator, detail
// and emitted row count only.
func planRows(node *PlanNode) []string {
	var out []string
	var walk func(n *PlanNode, depth int)
	walk = func(n *PlanNode, depth int) {
		out = append(out, fmt.Sprintf("%*s%s %s rows=%d", depth*2, "", n.Op, n.Detail, n.Rows))
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(node, 0)
	return out
}

// checkGolden compares got against the recorded file entry by entry, in
// both directions; under -update it rewrites the file from got instead.
func checkGolden[T any](t *testing.T, path string, got map[string]T) {
	t.Helper()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: recorded but no longer computed", k)
		} else if !reflect.DeepEqual(g, want[k]) {
			t.Errorf("%s: differs from the recorded row-engine output:\ngot:\n%v\nwant:\n%v", k, g, want[k])
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: computed but not recorded", k)
		}
	}
}

// TestCorpusGolden is the harness's core assertion: every corpus query,
// with the rewrite rules on and with every rule off (the naive
// cross-product-then-filter pipeline: nested-loop joins, no pushdown, no
// pruning), returns the result table the reference evaluator computes, the
// same output at every worker count, and the table and per-operator row
// counts the row-at-a-time engine recorded.
func TestCorpusGolden(t *testing.T) {
	ruleSets := []struct {
		name  string
		hints Hints
	}{{"rules-on", Hints{}}, {"rules-off", allRulesOff}}
	got := make(map[string]corpusResult)
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		db := seedCorpusDB(t, w)
		for _, rs := range ruleSets {
			ctx := WithHints(context.Background(), rs.hints)
			for _, q := range corpus() {
				key := rs.name + ": " + q
				r := runCorpusQuery(t, ctx, db, q)
				ref, err := naiveExec(ctx, db, q)
				if err != nil {
					t.Fatalf("%s (oracle): %v", key, err)
				}
				if r.Rows != ref.String() {
					t.Fatalf("%s workers=%d: rows differ from the reference evaluator:\ngot:\n%s\nwant:\n%s", key, w, r.Rows, ref)
				}
				if first, ok := got[key]; !ok {
					got[key] = r
				} else if !reflect.DeepEqual(r, first) {
					t.Fatalf("%s: workers=%d differs from workers=1:\ngot:\n%v\nwant:\n%v", key, w, r, first)
				}
			}
		}
	}
	checkGolden(t, "testdata/corpus_golden.json", got)
}

// opBatchesRe matches an operator's own batch counter, which renders right
// after rows= (a sampling operator's samples=/batches= pair comes later).
var opBatchesRe = regexp.MustCompile(`rows=\d+ batches=[1-9]`)

// TestPlanReportsBatches pins the observability contract: every operator
// of an analyzed plan reports the column batches it emitted next to rows=.
func TestPlanReportsBatches(t *testing.T) {
	db := seedCorpusDB(t, 1)
	out, err := Exec(db, "EXPLAIN ANALYZE SELECT cust, price FROM customers WHERE price > 200")
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out.Tuples[:len(out.Tuples)-1] { // last line: Execution time
		if line := tup.Values[0].S; !opBatchesRe.MatchString(line) {
			t.Fatalf("EXPLAIN ANALYZE operator line lacks batches=: %s", line)
		}
	}
}

// renderTuple renders one result row, condition included.
func renderTuple(tup *ctable.Tuple) string {
	cells := make([]string, len(tup.Values))
	for i, v := range tup.Values {
		cells[i] = v.String()
	}
	return strings.Join(cells, "|") + "@" + tup.Cond.String()
}

// TestStreamingCursorsMatch consumes plans through the public streaming
// cursor (QueryContext), one row per Next, and requires the same rows in
// the same order as the eager drain and the reference evaluator. The
// cursor asks its plan for as many rows as it has already handed out (1, 1,
// 2, 4, ... up to a full batch), so the sized queries (2 500 input rows)
// cross every step of that ramp and two full batches after it, through a
// sparse filter, a sampling projection, a join, a LIMIT that ends inside
// the first full batch, and a blocking DISTINCT.
func TestStreamingCursorsMatch(t *testing.T) {
	corpusDB := seedCorpusDB(t, 1)
	sizedDB := vecSizesDB(t, 2500)
	cases := []struct {
		db *core.DB
		q  string
	}{
		{corpusDB, "SELECT o.okey, c.name FROM orders o, customers c WHERE o.cust = c.cust ORDER BY o.okey LIMIT 7"},
		{corpusDB, "SELECT cust, price FROM customers WHERE price > 200"},
		{corpusDB, "SELECT s.berg, h.ship, conf() AS threat FROM sightings s, ships h WHERE s.plat > h.lat - 0.5 AND s.plat < h.lat + 0.5 AND s.plon > h.lon - 0.5 AND s.plon < h.lon + 0.5"},
		{sizedDB, "SELECT v FROM t"},
		{sizedDB, "SELECT v FROM t WHERE tag = 3"},
		{sizedDB, "SELECT v * 2 AS d, conf() AS p FROM t WHERE tag <> 1"},
		{sizedDB, "SELECT t.v, u.lbl FROM t, u WHERE t.tag = u.tag"},
		{sizedDB, "SELECT t.v, u.lbl FROM t, u WHERE t.tag = u.tag LIMIT 1100"},
		{sizedDB, "SELECT DISTINCT v FROM t"},
	}
	for _, tc := range cases {
		cur, err := QueryContext(context.Background(), tc.db, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		var streamed []string
		for {
			tup, err := cur.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", tc.q, err)
			}
			streamed = append(streamed, renderTuple(tup))
		}
		cur.Close()
		for _, ref := range []struct {
			name string
			exec func(context.Context, *core.DB, string, ...ctable.Value) (*ctable.Table, error)
		}{{"drained", ExecContext}, {"reference evaluator", naiveExec}} {
			tb, err := ref.exec(context.Background(), tc.db, tc.q)
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.q, ref.name, err)
			}
			want := make([]string, len(tb.Tuples))
			for i := range tb.Tuples {
				want[i] = renderTuple(&tb.Tuples[i])
			}
			if strings.Join(streamed, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: streamed rows differ from %s: %d rows vs %d", tc.q, ref.name, len(streamed), len(want))
			}
		}
	}
}
