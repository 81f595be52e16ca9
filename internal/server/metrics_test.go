package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrapeMetrics fetches /metrics from a test server.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
)

// lintExposition is the promtext lint: every line must be a well-formed
// HELP/TYPE comment or a sample, every sample's family must be declared by
// HELP and TYPE before its first sample, and every value must parse as a
// float. Returns the per-family sample values keyed by full series name
// (family + label set).
func lintExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	declared := map[string]bool{}
	typed := map[string]string{}
	series := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if m := helpRe.FindStringSubmatch(line); m != nil {
				declared[m[1]] = true
				continue
			}
			if m := typeRe.FindStringSubmatch(line); m != nil {
				typed[m[1]] = m[2]
				continue
			}
			t.Fatalf("malformed comment line: %q", line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name, labels, valText := m[1], m[2], m[3]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				family = strings.TrimSuffix(name, suffix)
			}
		}
		if !declared[family] || typed[family] == "" {
			t.Fatalf("sample %q precedes its HELP/TYPE declaration", line)
		}
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("sample %q: value does not parse: %v", line, err)
		}
		series[name+labels] = val
	}
	return series
}

// TestMetricsExposition boots a server, drives traffic through Exec and
// Query (including a failing statement), and lints the
// resulting exposition: well-formed text, all expected families present,
// histogram bucket counts cumulative with +Inf == count.
func TestMetricsExposition(t *testing.T) {
	addr, _, ts := newTestServer(t, 7)
	client := NewClient(addr)
	ctx := context.Background()
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)

	if _, err := sess.Exec(ctx, "CREATE TABLE t (v)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	rows, err := sess.Query(ctx, "SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	if _, err := sess.Exec(ctx, "SELEKT nonsense"); err == nil {
		t.Fatal("malformed statement did not error")
	}

	text := scrapeMetrics(t, ts.URL)
	series := lintExposition(t, text)

	for _, family := range []string{"pip_queries_total", "pip_queries_inflight",
		"pip_sessions_total", "pip_query_errors_total", "pip_rows_streamed_total",
		"pip_stream_flushes_total", "pip_stream_bytes_total"} {
		if _, ok := series[family]; !ok {
			t.Fatalf("flat family %s missing from exposition", family)
		}
	}
	if series["pip_queries_inflight"] != 0 {
		t.Fatalf("pip_queries_inflight = %g after all statements finished, want 0",
			series["pip_queries_inflight"])
	}
	if series["pip_query_errors_total"] < 1 {
		t.Fatal("failed statement not counted in pip_query_errors_total")
	}

	for _, family := range []string{"pip_query_seconds", "pip_query_rows", "pip_query_samples"} {
		count, ok := series[family+"_count"]
		if !ok {
			t.Fatalf("histogram %s missing", family)
		}
		inf, ok := series[family+`_bucket{le="+Inf"}`]
		if !ok || inf != count {
			t.Fatalf("%s: +Inf bucket %g != count %g", family, inf, count)
		}
		// Bucket counts must be cumulative (non-decreasing in le order).
		prev := -1.0
		var last float64
		for _, line := range strings.Split(text, "\n") {
			if !strings.HasPrefix(line, family+"_bucket{le=") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("%s: bucket counts not cumulative: %g after %g", family, v, prev)
			}
			prev, last = v, v
		}
		if last != count {
			t.Fatalf("%s: final bucket %g != count %g", family, last, count)
		}
	}
	// The SELECT streamed 3 rows in head + first row + the rest with done;
	// CREATE and INSERT each streamed a bare head and done; the malformed
	// statement failed before its head. Rows per flush and bytes per row
	// read off the counters.
	if got := series["pip_rows_streamed_total"]; got != 3 {
		t.Fatalf("pip_rows_streamed_total = %g, want 3", got)
	}
	if got := series["pip_stream_flushes_total"]; got != 2+2+3 {
		t.Fatalf("pip_stream_flushes_total = %g, want 7 (head, done; head, done; head, first row, rest+done)", got)
	}
	bare := len(`{"k":"head"}`+"\n") + len(`{"k":"done"}`+"\n")
	want := 2*bare + len(`{"k":"head","columns":["v"]}`+"\n") + 3*len(`{"k":"row","row":[{"t":"f","f":"1"}]}`+"\n") + len(`{"k":"done","rows":3}`+"\n")
	if got := series["pip_stream_bytes_total"]; got != float64(want) {
		t.Fatalf("pip_stream_bytes_total = %g, want %d", got, want)
	}
	// Four statements were observed; the failed one counts too.
	if got := series["pip_query_seconds_count"]; got != 4 {
		t.Fatalf("pip_query_seconds_count = %g, want 4", got)
	}
}

// TestInflightNeverNegative hammers Exec and Query concurrently with a mix
// of succeeding and failing statements; afterwards the in-flight gauge
// must read exactly zero (the historical bug double-decremented on error
// paths, driving it negative).
func TestInflightNeverNegative(t *testing.T) {
	addr, srv, ts := newTestServer(t, 11)
	client := NewClient(addr)
	ctx := context.Background()
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	if _, err := sess.Exec(ctx, "CREATE TABLE t (v)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if (g+i)%3 == 0 {
					_, _ = sess.Exec(ctx, "SELEKT broken") // parse error path
					continue
				}
				rows, err := sess.Query(ctx, "SELECT v FROM t")
				if err != nil {
					continue
				}
				for rows.Next() {
				}
				rows.Close()
			}
		}(g)
	}
	wg.Wait()

	if got := srv.met.queriesInflight.Load(); got != 0 {
		t.Fatalf("pip_queries_inflight = %d after drain, want 0", got)
	}
	series := lintExposition(t, scrapeMetrics(t, ts.URL))
	if series["pip_queries_inflight"] != 0 {
		t.Fatalf("scraped inflight %g, want 0", series["pip_queries_inflight"])
	}
}

// TestQueryTrackerIdempotent pins the defer-safety contract: calling
// finish twice (explicit + deferred safety net) decrements the in-flight
// gauge exactly once.
func TestQueryTrackerIdempotent(t *testing.T) {
	m := newMetrics()
	qt := m.startQuery()
	if got := m.queriesInflight.Load(); got != 1 {
		t.Fatalf("inflight after start = %d, want 1", got)
	}
	qt.finish(5, 100, nil, false)
	qt.finish(0, -1, nil, false) // the deferred safety net
	if got := m.queriesInflight.Load(); got != 0 {
		t.Fatalf("inflight after double finish = %d, want 0", got)
	}
	if got := m.rowsTotal.Load(); got != 5 {
		t.Fatalf("rows recorded %d, want 5 (second finish must be a no-op)", got)
	}
	var nilTracker *queryTracker
	nilTracker.finish(0, -1, nil, false) // nil-safe
}

// engineSamples reads the engine-scope samples counter off SHOW STATS.
func engineSamples(t *testing.T, sess *ClientSession) float64 {
	t.Helper()
	rows, err := sess.Query(context.Background(), "SHOW STATS")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := -1.0
	for rows.Next() {
		scope, _ := rows.Native(0)
		name, _ := rows.Native(1)
		if scope == "engine" && name == "samples" {
			v, _ := rows.Native(2)
			got = v.(float64)
		}
	}
	if err := rows.Err(); err != nil || got < 0 {
		t.Fatalf("SHOW STATS engine samples: %v, err %v", got, err)
	}
	return got
}

// samplesSum reads the pip_query_samples total. Clients close each stream
// after its done chunk, which drains the body to the end of the response,
// so every handler has recorded its observation by the time the test
// scrapes.
func samplesSum(series map[string]float64) float64 {
	return series["pip_query_samples_sum"]
}

// TestQuerySamplesOwnStatement: a statement's pip_query_samples observation
// is the samples that statement drew. INSERTs that follow a sampled SELECT
// draw none and must record 0, not the SELECT's count.
func TestQuerySamplesOwnStatement(t *testing.T) {
	addr, _, ts := newTestServer(t, 5)
	ctx := context.Background()
	sess, err := NewClient(addr).Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	for _, q := range []string{
		"CREATE TABLE t (k, v)",
		"INSERT INTO t VALUES (1, CREATE_VARIABLE('Uniform', 0, 1))",
	} {
		if _, err := sess.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	series := lintExposition(t, scrapeMetrics(t, ts.URL))
	if got := series["pip_query_samples_sum"]; got != 0 {
		t.Fatalf("pip_query_samples_sum = %g after DDL and an INSERT, want 0", got)
	}
	rows, err := sess.Query(ctx, "SELECT conf() FROM t WHERE v > 0.3 AND v * v > 0.2")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	selected := lintExposition(t, scrapeMetrics(t, ts.URL))["pip_query_samples_sum"]
	if selected <= 0 {
		t.Fatalf("pip_query_samples_sum = %g, want the conf() statement's samples", selected)
	}
	for i := 0; i < 3; i++ {
		if _, err := sess.Exec(ctx, "INSERT INTO t VALUES (2, 3)"); err != nil {
			t.Fatal(err)
		}
	}
	series = lintExposition(t, scrapeMetrics(t, ts.URL))
	if got := series["pip_query_samples_sum"]; got != selected {
		t.Fatalf("pip_query_samples_sum = %g after three INSERTs, want %g: INSERTs draw no samples", got, selected)
	}
	if got := series["pip_query_samples_count"]; got != 6 {
		t.Fatalf("pip_query_samples_count = %g, want 6", got)
	}
}

// TestQuerySamplesConcurrentExact: with 8 sessions interleaving
// deterministic point reads and sampled statements through Exec and Query, the
// per-statement observations add up exactly to the engine-wide samples
// counter — no statement is credited with another's samples.
func TestQuerySamplesConcurrentExact(t *testing.T) {
	addr, _, ts := newTestServer(t, 13)
	client := NewClient(addr)
	ctx := context.Background()
	sess, err := client.Session(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	for _, q := range []string{
		"CREATE TABLE t (k, v)",
		"INSERT INTO t VALUES (1, CREATE_VARIABLE('Uniform', 0, 1)), (2, CREATE_VARIABLE('Normal', 0, 1)), (3, 7)",
	} {
		if _, err := sess.Exec(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	before := engineSamples(t, sess)
	sumBefore := samplesSum(lintExposition(t, scrapeMetrics(t, ts.URL)))

	const sampled = "SELECT conf() FROM t WHERE v > 0.3 AND v * v > 0.2"
	const pointRead = "SELECT v FROM t WHERE k = ?"
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := client.Session(ctx, nil)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close(ctx)
			query := func(q string, args ...any) error {
				rows, err := s.Query(ctx, q, args...)
				if err != nil {
					return err
				}
				defer rows.Close()
				for rows.Next() {
				}
				return rows.Err()
			}
			for i := 0; i < 12; i++ {
				var err error
				switch (g + i) % 4 {
				case 0:
					_, err = s.Exec(ctx, sampled)
				case 1:
					_, err = s.Exec(ctx, pointRead, 1+i%3)
				case 2:
					err = query(sampled)
				default:
					err = query(pointRead, 1+i%3)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	after := engineSamples(t, sess)
	sumAfter := samplesSum(lintExposition(t, scrapeMetrics(t, ts.URL)))
	if after <= before {
		t.Fatalf("engine samples %g -> %g: the sampled statements drew nothing", before, after)
	}
	if got, want := sumAfter-sumBefore, after-before; got != want {
		t.Fatalf("pip_query_samples grew by %g, engine samples by %g", got, want)
	}
}
