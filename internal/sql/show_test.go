package sql

import (
	"regexp"
	"strings"
	"testing"

	"pip/internal/sampler"
)

// TestShowStats pins the SHOW STATS contract: the fixed (scope, name,
// value) schema, the engine rows always present, and query-scope rows —
// phases and sampler counters — appearing once a sampling SELECT ran.
func TestShowStats(t *testing.T) {
	db := plannerDB(t)

	out := mustExec(t, db, "SHOW STATS")
	if got := strings.Join(out.Schema.Names(), ","); got != "scope,name,value" {
		t.Fatalf("schema %q, want scope,name,value", got)
	}
	rows := map[[2]string]float64{}
	for _, tp := range out.Tuples {
		rows[[2]string{tp.Values[0].S, tp.Values[1].S}] = tp.Values[2].F
	}
	for _, name := range []string{"samples", "batches", "rounds", "rejection_attempts",
		"metropolis_proposals", "escalations", "exact_cdf_hits", "closed_form_hits",
		"queries_traced"} {
		if _, ok := rows[[2]string{"engine", name}]; !ok {
			t.Fatalf("engine row %q missing; rows: %v", name, rows)
		}
	}
	if _, ok := rows[[2]string{"query", "samples"}]; ok {
		t.Fatal("query scope present before any query ran")
	}

	// A sampling aggregate (expected_max has no closed form) populates the
	// query scope with counters and phase timings.
	mustExec(t, db, "SELECT expected_max(price) AS m FROM o")
	out = mustExec(t, db, "SHOW STATS")
	rows = map[[2]string]float64{}
	for _, tp := range out.Tuples {
		rows[[2]string{tp.Values[0].S, tp.Values[1].S}] = tp.Values[2].F
	}
	if rows[[2]string{"query", "samples"}] <= 0 {
		t.Fatalf("query scope recorded no samples: %v", rows)
	}
	if rows[[2]string{"engine", "samples"}] < rows[[2]string{"query", "samples"}] {
		t.Fatal("engine scope did not aggregate the query's samples")
	}
	if rows[[2]string{"engine", "queries_traced"}] != 1 {
		t.Fatalf("queries_traced = %v, want 1 (SHOW STATS itself must not count)",
			rows[[2]string{"engine", "queries_traced"}])
	}
	for _, ph := range []string{"plan", "rewrite", "execute"} {
		if _, ok := rows[[2]string{"query", "phase_" + ph + "_seconds"}]; !ok {
			t.Fatalf("query phase %q missing; rows: %v", ph, rows)
		}
	}
	// SHOW STATS must read, not displace, the last-query snapshot: running
	// it twice keeps the query scope.
	out = mustExec(t, db, "SHOW STATS")
	found := false
	for _, tp := range out.Tuples {
		if tp.Values[0].S == "query" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("second SHOW STATS lost the query scope")
	}
}

// TestExplainAnalyzeSamplerAnnotations asserts EXPLAIN ANALYZE decorates
// sampling operators with their per-operator sampler counters.
func TestExplainAnalyzeSamplerAnnotations(t *testing.T) {
	db := plannerDB(t)
	out := mustExec(t, db, "EXPLAIN ANALYZE SELECT expected_max(price) AS m FROM o")
	var plan strings.Builder
	for _, tp := range out.Tuples {
		plan.WriteString(tp.Values[0].S)
		plan.WriteByte('\n')
	}
	text := plan.String()
	if !strings.Contains(text, "samples=") || !strings.Contains(text, "batches=") {
		t.Fatalf("EXPLAIN ANALYZE lacks sampler annotations:\n%s", text)
	}

	// With the closed forms off, a two-variable comparison defeats the
	// exact shortcuts, so conf() rejection-samples and the operator reports
	// its acceptance rate.
	db.UpdateConfig(func(cfg *sampler.Config) { cfg.DisableClosedForm = true })
	out = mustExec(t, db, "EXPLAIN ANALYZE SELECT cust, conf() AS p FROM o, s WHERE o.price > s.duration")
	plan.Reset()
	for _, tp := range out.Tuples {
		plan.WriteString(tp.Values[0].S)
		plan.WriteByte('\n')
	}
	if !strings.Contains(plan.String(), "accept=") {
		t.Fatalf("EXPLAIN ANALYZE lacks accept rate on the sampling operator:\n%s", plan.String())
	}
	// Plain EXPLAIN (no ANALYZE) must stay clean of runtime counters.
	out = mustExec(t, db, "EXPLAIN SELECT expected_max(price) AS m FROM o")
	for _, tp := range out.Tuples {
		if strings.Contains(tp.Values[0].S, "samples=") {
			t.Fatalf("plain EXPLAIN leaked runtime counters: %s", tp.Values[0].S)
		}
	}
}

// TestExplainAnalyzeExactAnswers: a conf() over Normal prices compared with
// Normal or constant durations is an interval on one linear form of
// Gaussian variables per row, integrated exactly. EXPLAIN ANALYZE must say
// so with exact=N beside samples=0.
func TestExplainAnalyzeExactAnswers(t *testing.T) {
	db := plannerDB(t)
	out := mustExec(t, db, "EXPLAIN ANALYZE SELECT cust, conf() AS p FROM o, s WHERE o.price > s.duration")
	project := out.Tuples[0].Values[0].S
	m := regexp.MustCompile(`samples=(\d+) batches=\d+ exact=(\d+)`).FindStringSubmatch(project)
	if m == nil {
		t.Fatalf("Project line lacks samples=/exact= annotations: %s", project)
	}
	if m[1] != "0" || m[2] == "0" {
		t.Fatalf("Gaussian conf() drew %s samples with %s exact answers, want 0 and > 0: %s", m[1], m[2], project)
	}
}

// TestVarianceSampleBudget: variance() draws the fixed world budget, which
// max_samples sets up to its cap, so SET max_samples = 20000 draws as many
// samples as 10000 does rather than fewer.
func TestVarianceSampleBudget(t *testing.T) {
	db := plannerDB(t)
	mustExec(t, db, "CREATE TABLE un (u)")
	mustExec(t, db, "INSERT INTO un VALUES (CREATE_VARIABLE('Uniform', 0, 1))")
	for _, c := range []struct{ maxSamples, want string }{{"500", "500"}, {"10000", "10000"}, {"20000", "10000"}} {
		mustExec(t, db, "SET max_samples = "+c.maxSamples)
		out := mustExec(t, db, "EXPLAIN ANALYZE SELECT variance(u) AS v FROM un WHERE u > 0.5")
		project := out.Tuples[0].Values[0].S
		m := regexp.MustCompile(`samples=(\d+) `).FindStringSubmatch(project)
		if m == nil || m[1] != c.want {
			t.Fatalf("max_samples = %s: variance() line %q, want samples=%s", c.maxSamples, project, c.want)
		}
	}
}
