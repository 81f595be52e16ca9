// Server metrics: the counter and histogram families behind /metrics,
// rendered in the Prometheus text exposition format (version 0.0.4). The
// flat counter families of earlier releases are all preserved; the
// label-free histogram families (latency, rows, samples per statement) are
// built on obs.Histogram so the hot path stays a few atomic adds.

package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"pip/internal/obs"
	"pip/internal/repl"
	"pip/internal/wal"
)

// metrics is the server's counter set, exported in Prometheus text format
// by /metrics. All counters are monotonic atomics except the gauges
// (in-flight queries, live sessions) sampled at render time.
type metrics struct {
	start time.Time

	requestsTotal   atomic.Int64 // every HTTP request served
	queriesTotal    atomic.Int64 // /v1/query statements started
	queriesInflight atomic.Int64 // statements currently executing
	errorsTotal     atomic.Int64 // statements that ended in an error chunk/status
	cancelledTotal  atomic.Int64 // statements ended by client disconnect/cancel
	rowsTotal       atomic.Int64 // result rows streamed to clients
	streamFlushes   atomic.Int64 // flushes of /v1/query response streams
	streamBytes     atomic.Int64 // NDJSON bytes written to /v1/query response streams
	sessionsTotal   atomic.Int64 // sessions ever created
	sessionsSwept   atomic.Int64 // sessions reclaimed by the idle sweep
	queryNanos      atomic.Int64 // cumulative statement wall time

	querySeconds *obs.Histogram // statement latency
	queryRows    *obs.Histogram // rows per statement
	querySamples *obs.Histogram // Monte Carlo samples per statement
}

// newMetrics starts the uptime clock and allocates the histograms.
func newMetrics() *metrics {
	return &metrics{
		start:        time.Now(),
		querySeconds: obs.NewHistogram(obs.ExpBuckets(1e-4, 4, 10)), // 100µs .. ~26s
		queryRows:    obs.NewHistogram(obs.ExpBuckets(1, 4, 10)),    // 1 .. ~260k rows
		querySamples: obs.NewHistogram(obs.ExpBuckets(64, 4, 10)),   // one batch .. ~16M samples
	}
}

// queryTracker follows one statement from start to finish. finish is
// idempotent, so handlers can arm a deferred call as a safety net (keeping
// pip_queries_inflight exact even on a panic or early return) and still
// report the real row/sample counts from the normal exit path — the first
// call wins.
type queryTracker struct {
	m        *metrics
	start    time.Time
	finished bool
}

// startQuery counts a statement as started and in flight and returns its
// tracker.
func (m *metrics) startQuery() *queryTracker {
	m.queriesTotal.Add(1)
	m.queriesInflight.Add(1)
	return &queryTracker{m: m, start: time.Now()}
}

// finish records the statement's outcome: wall time, streamed rows, Monte
// Carlo samples (negative = unknown, skips the samples histogram), and the
// error/cancellation disposition. Calls after the first are no-ops.
func (t *queryTracker) finish(rows, samples int64, err error, cancelled bool) {
	if t == nil || t.finished {
		return
	}
	t.finished = true
	d := time.Since(t.start)
	m := t.m
	m.queriesInflight.Add(-1)
	m.queryNanos.Add(int64(d))
	m.rowsTotal.Add(rows)
	if cancelled {
		m.cancelledTotal.Add(1)
	} else if err != nil {
		m.errorsTotal.Add(1)
	}
	m.querySeconds.Observe(d.Seconds())
	m.queryRows.Observe(float64(rows))
	if samples >= 0 {
		m.querySamples.Observe(float64(samples))
	}
}

// metric is one label-free counter or gauge family of the exposition.
type metric struct {
	name, help, typ string
	value           float64
}

// boolGauge is the 0/1 value of a flag exported as a gauge.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeFlatFamilies renders label-free families sorted by name.
func writeFlatFamilies(w io.Writer, ms []metric) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, mt := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", mt.name, mt.help, mt.name, mt.typ, mt.name, mt.value)
	}
}

// write renders the Prometheus text exposition. sessionsActive is sampled
// from the session manager at call time.
func (m *metrics) write(w io.Writer, sessionsActive int) {
	writeFlatFamilies(w, []metric{
		{"pip_uptime_seconds", "Seconds since the server started.", "gauge", time.Since(m.start).Seconds()},
		{"pip_requests_total", "HTTP requests served, all endpoints.", "counter", float64(m.requestsTotal.Load())},
		{"pip_queries_total", "SQL statements started via /v1/query.", "counter", float64(m.queriesTotal.Load())},
		{"pip_queries_inflight", "SQL statements currently executing.", "gauge", float64(m.queriesInflight.Load())},
		{"pip_query_errors_total", "Statements that ended in an error.", "counter", float64(m.errorsTotal.Load())},
		{"pip_query_cancelled_total", "Statements ended by client cancellation or disconnect.", "counter", float64(m.cancelledTotal.Load())},
		{"pip_rows_streamed_total", "Result rows streamed to clients.", "counter", float64(m.rowsTotal.Load())},
		{"pip_stream_flushes_total", "Flushes of /v1/query result streams onto their connections.", "counter", float64(m.streamFlushes.Load())},
		{"pip_stream_bytes_total", "NDJSON bytes written to /v1/query result streams.", "counter", float64(m.streamBytes.Load())},
		{"pip_sessions_active", "Live sessions.", "gauge", float64(sessionsActive)},
		{"pip_sessions_total", "Sessions ever created.", "counter", float64(m.sessionsTotal.Load())},
		{"pip_sessions_swept_total", "Sessions reclaimed by the idle sweep.", "counter", float64(m.sessionsSwept.Load())},
		{"pip_query_seconds_total", "Cumulative statement execution wall time.", "counter", time.Duration(m.queryNanos.Load()).Seconds()},
	})
	writeHistogramSnapshot(w, "pip_query_seconds", "Statement execution latency in seconds.", m.querySeconds.Snapshot())
	writeHistogramSnapshot(w, "pip_query_rows", "Result rows per statement.", m.queryRows.Snapshot())
	writeHistogramSnapshot(w, "pip_query_samples", "Monte Carlo samples drawn per statement.", m.querySamples.Snapshot())
}

// formatBound renders a bucket upper bound the way Prometheus clients
// expect ("0.0001", "64", not Go's %g exponent forms for large values).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// writeWALMetrics renders the write-ahead log's counter families from a
// wal.Stats snapshot: append volume, fsync latency, snapshot cadence, and
// what the boot-time recovery pass restored.
func writeWALMetrics(w io.Writer, st wal.Stats) {
	writeFlatFamilies(w, []metric{
		{"pip_wal_poisoned", "1 after an append/sync failure fail-stopped the log; mutations are refused until restart.", "gauge", boolGauge(st.Poisoned != "")},
		{"pip_wal_records_total", "Statements appended to the write-ahead log.", "counter", float64(st.Records)},
		{"pip_wal_bytes_total", "Bytes appended to the write-ahead log.", "counter", float64(st.Bytes)},
		{"pip_wal_fsyncs_total", "Write-ahead log fsync calls.", "counter", float64(st.Fsyncs)},
		{"pip_wal_snapshots_total", "Catalog snapshots taken.", "counter", float64(st.Snapshots)},
		{"pip_wal_last_seq", "Sequence number of the newest durable log record.", "gauge", float64(st.LastSeq)},
		{"pip_wal_since_snapshot", "Log records accumulated past the newest snapshot.", "gauge", float64(st.SinceSnapshot)},
		{"pip_wal_recovery_seconds", "Wall time of the boot-time recovery pass.", "gauge", st.Recovery.Duration.Seconds()},
		{"pip_wal_recovery_replayed_records", "Log records replayed during the boot-time recovery pass.", "gauge", float64(st.Recovery.Replayed)},
	})
	writeHistogramSnapshot(w, "pip_wal_fsync_seconds", "Write-ahead log fsync latency in seconds.", st.FsyncSeconds)
}

// writeReplPrimaryMetrics renders the primary-side replication families
// from a repl.PrimaryStats snapshot: shipped volume, stream churn, and
// per-replica progress (acked sequence and lag in records, labelled by the
// replica id, which outlives disconnects so lag stays visible while a
// replica is down).
func writeReplPrimaryMetrics(w io.Writer, st repl.PrimaryStats) {
	writeFlatFamilies(w, []metric{
		{"pip_repl_role_primary", "1 on a replication primary.", "gauge", 1},
		{"pip_repl_last_seq", "Newest durable log record available to replicas.", "gauge", float64(st.LastSeq)},
		{"pip_repl_connected_replicas", "Replicas with a live stream open.", "gauge", float64(st.ConnectedReplicas)},
		{"pip_repl_known_replicas", "Replicas the primary has ever heard from.", "gauge", float64(len(st.Replicas))},
		{"pip_repl_records_shipped_total", "Log records shipped to replicas across all streams.", "counter", float64(st.RecordsShipped)},
		{"pip_repl_bytes_shipped_total", "Record payload bytes shipped to replicas.", "counter", float64(st.BytesShipped)},
		{"pip_repl_snapshots_shipped_total", "Snapshot images streamed to bootstrapping replicas.", "counter", float64(st.SnapshotsShipped)},
		{"pip_repl_streams_total", "Replication streams ever opened.", "counter", float64(st.StreamsTotal)},
	})
	if len(st.Replicas) > 0 {
		fmt.Fprintf(w, "# HELP pip_repl_replica_acked_seq Newest sequence number each replica reports applied.\n# TYPE pip_repl_replica_acked_seq gauge\n")
		for _, r := range st.Replicas {
			fmt.Fprintf(w, "pip_repl_replica_acked_seq{replica=%q} %g\n", r.ID, float64(r.AckedSeq))
		}
		fmt.Fprintf(w, "# HELP pip_repl_replica_lag_records Records each replica trails the primary by.\n# TYPE pip_repl_replica_lag_records gauge\n")
		for _, r := range st.Replicas {
			fmt.Fprintf(w, "pip_repl_replica_lag_records{replica=%q} %g\n", r.ID, float64(r.LagRecords))
		}
	}
}

// writeReplFollowerMetrics renders the replica-side replication families
// from a repl.FollowerStats snapshot: applied position against the
// primary's, apply volume, reconnect churn, and the fail-stop latch.
func writeReplFollowerMetrics(w io.Writer, st repl.FollowerStats) {
	writeFlatFamilies(w, []metric{
		{"pip_repl_role_replica", "1 on a read-only replica.", "gauge", 1},
		{"pip_repl_applied_seq", "Newest log record this replica has applied.", "gauge", float64(st.AppliedSeq)},
		{"pip_repl_primary_seq", "Primary log position as last reported on the stream.", "gauge", float64(st.PrimarySeq)},
		{"pip_repl_lag_records", "Records this replica trails the primary by.", "gauge", float64(st.LagRecords)},
		{"pip_repl_records_applied_total", "Log records applied from the replication stream.", "counter", float64(st.RecordsApplied)},
		{"pip_repl_bytes_applied_total", "Record payload bytes applied from the replication stream.", "counter", float64(st.BytesApplied)},
		{"pip_repl_snapshot_loads_total", "Snapshot images loaded to bootstrap or catch up.", "counter", float64(st.SnapshotsLoaded)},
		{"pip_repl_reconnects_total", "Stream reconnect attempts after transient failures.", "counter", float64(st.Reconnects)},
		{"pip_repl_connected", "1 while a replication stream is open to the primary.", "gauge", boolGauge(st.Connected)},
		{"pip_repl_fail_stopped", "1 after an integrity failure latched and stopped replication.", "gauge", boolGauge(st.FailStopped)},
	})
}

// writeHistogramSnapshot renders one label-free histogram in the standard
// _bucket/_sum/_count shape from an already-taken snapshot.
func writeHistogramSnapshot(w io.Writer, name, help string, snap obs.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, b := range snap.Bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), snap.Counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, snap.Sum)
	fmt.Fprintf(w, "%s_count %d\n", name, snap.Count)
}
