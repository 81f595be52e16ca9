package sql

import (
	"context"
	"math"
	"strings"
	"testing"

	"pip/internal/core"
	"pip/internal/sampler"
)

func TestSetStatement(t *testing.T) {
	db := core.NewDB(sampler.DefaultConfig())
	cases := []struct {
		stmt  string
		check func(cfg sampler.Config) bool
	}{
		{`SET workers = 4`, func(c sampler.Config) bool { return c.Workers == 4 }},
		{`SET workers = 0`, func(c sampler.Config) bool { return c.Workers == 0 }},
		{`SET samples = 500`, func(c sampler.Config) bool { return c.FixedSamples == 500 }},
		{`SET max_samples = 20000`, func(c sampler.Config) bool { return c.MaxSamples == 20000 }},
		{`SET min_samples = 50`, func(c sampler.Config) bool { return c.MinSamples == 50 }},
		{`SET epsilon = 0.01`, func(c sampler.Config) bool { return c.Epsilon == 0.01 }},
		{`SET delta = 0.1`, func(c sampler.Config) bool { return c.Delta == 0.1 }},
		{`SET seed = 42`, func(c sampler.Config) bool { return c.WorldSeed == 42 }},
	}
	for _, tc := range cases {
		if _, err := Exec(db, tc.stmt); err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if !tc.check(db.Config()) {
			t.Fatalf("%s: configuration not applied: %+v", tc.stmt, db.Config())
		}
	}
}

// TestSetVectorizeAcceptedAndIgnored covers the one retired setting: logs
// written while there were two relational engines carry SET vectorize, so
// the statement must keep parsing, validating and succeeding — and change
// nothing, including the list of settings an unknown name is offered.
func TestSetVectorizeAcceptedAndIgnored(t *testing.T) {
	db := core.NewDB(sampler.DefaultConfig())
	before := db.Config()
	for _, stmt := range []string{`SET vectorize = off`, `SET vectorize = on`, `SET vectorize = 0`, `SET vectorize = true`} {
		if _, err := Exec(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if db.Config() != before {
			t.Fatalf("%s changed the configuration: %+v", stmt, db.Config())
		}
	}
	_, err := Exec(db, `SET nonsense = 1`)
	if err == nil || strings.Contains(err.Error(), "vectorize") || !strings.Contains(err.Error(), "workers") {
		t.Fatalf("unknown-setting error should list the live settings only: %v", err)
	}
}

func TestSetStatementErrors(t *testing.T) {
	db := core.NewDB(sampler.DefaultConfig())
	before := db.Config()
	cases := []struct {
		stmt    string
		wantSub string
	}{
		{`SET nonsense = 1`, "unknown setting"},
		{`SET workers = -1`, "non-negative"},
		{`SET workers = 1.5`, "integer"},
		{`SET epsilon = 2`, "(0, 1)"},
		{`SET max_samples = 0`, "positive"},
		{`SET workers`, "expected"},
		{`SET workers = banana`, "numeric"},
		{`SET vectorize = 2`, "on or off"},
		{`SET vectorize = maybe`, "numeric"},
	}
	for _, tc := range cases {
		_, err := Exec(db, tc.stmt)
		if err == nil {
			t.Fatalf("%s: expected error", tc.stmt)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.stmt, err, tc.wantSub)
		}
	}
	if db.Config() != before {
		t.Fatalf("failed SET mutated the configuration: %+v", db.Config())
	}
}

// TestSetWorkersAffectsQueries runs a sampled aggregate before and after
// SET workers and checks bit-identical results — the engine's determinism
// contract surfaced at the SQL level.
func TestSetWorkersAffectsQueries(t *testing.T) {
	cfg := sampler.DefaultConfig()
	cfg.FixedSamples = 300
	db := core.NewDB(cfg)
	mustExec := func(q string) {
		t.Helper()
		if _, err := Exec(db, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE t (v)`)
	for i := 0; i < 10; i++ {
		mustExec(`INSERT INTO t VALUES (CREATE_VARIABLE('Exponential', 0.2))`)
	}
	q := `SELECT expected_sum(v) FROM t WHERE v > 3`
	seq, err := Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(`SET workers = 8`)
	par, err := Exec(db, q)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := seq.Tuples[0].Values[0].AsFloat()
	b, _ := par.Tuples[0].Values[0].AsFloat()
	if a != b {
		t.Fatalf("workers=8 changed the result: %v != %v", b, a)
	}
}

// TestSetAfterPlanningKeepsRunningAggregate: a SET on the same handle after
// a statement is planned and before its first row must not change that
// statement's answer — in-flight queries finish under the settings they
// started with. expected_stddev sizes its world count from the settings, so
// it is the aggregate that would notice.
func TestSetAfterPlanningKeepsRunningAggregate(t *testing.T) {
	answer := func(set string) float64 {
		t.Helper()
		cfg := sampler.DefaultConfig()
		cfg.WorldSeed = 3
		db := core.NewDB(cfg)
		for _, q := range []string{`CREATE TABLE t (v)`,
			`INSERT INTO t VALUES (CREATE_VARIABLE('Normal', 0, 1)), (CREATE_VARIABLE('Normal', 0, 1)), (CREATE_VARIABLE('Normal', 0, 1)), (CREATE_VARIABLE('Normal', 0, 1))`} {
			if _, err := Exec(db, q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		p, err := Prepare(`SELECT expected_stddev(v) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := p.QueryContext(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		if set != "" {
			if _, err := Exec(db, set); err != nil {
				t.Fatal(err)
			}
		}
		tup, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		f, _ := tup.Values[0].AsFloat()
		return f
	}
	want := answer("")
	if got := answer(`SET samples = 10`); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SET samples = 10 after planning changed the running statement's answer: %v, want %v", got, want)
	}
}
