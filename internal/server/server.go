package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pip"
	"pip/internal/repl"
	"pip/internal/wal"
)

// Config configures a Server.
type Config struct {
	// DB is the shared database all sessions view. Required.
	DB *pip.DB
	// Logger receives one structured record per HTTP request (method, path,
	// status, duration, bytes) plus server lifecycle events. Nil disables
	// request logging.
	Logger *slog.Logger
	// SlowQuery logs statements whose wall time exceeds this threshold at
	// Warn level with the query text attached. Zero or negative disables
	// slow-query logging. Requires Logger.
	SlowQuery time.Duration
	// SessionIdle expires sessions with no request for this long and none
	// in flight; the zero value takes DefaultSessionIdle, negative disables
	// expiry.
	SessionIdle time.Duration
	// WAL, when set, surfaces the write-ahead log's counters (records,
	// bytes, fsync latency, snapshots, recovery) on /metrics. Opening the
	// store and attaching it to the database is the caller's job (cmd/pipd
	// wires it from -data-dir); the server only reports on it.
	WAL *wal.Store
	// Repl, when set, marks this server a replication primary: the
	// replication endpoints (GET /v1/repl/stream, POST /v1/repl/ack) are
	// mounted on this handler too — normally they live on pipd's dedicated
	// -replicate-addr listener — and the primary-side pip_repl_* families
	// render on /metrics.
	Repl *repl.Primary
	// Follower, when set, marks this server a read-only replica: the
	// replica-side pip_repl_* families (applied position, lag, reconnects,
	// fail-stop state) render on /metrics. Marking the database read-only
	// and running the follower is the caller's job (cmd/pipd -follow).
	Follower *repl.Follower
}

// DefaultSessionIdle is the idle session expiry applied when
// Config.SessionIdle is zero.
const DefaultSessionIdle = 30 * time.Minute

// Server is the HTTP/JSON query service: it multiplexes one shared pip.DB
// across concurrent remote sessions, streaming query results chunk by
// chunk and propagating client disconnects into the sampler as context
// cancellation. Create with New, mount via Handler (or ServeHTTP), stop
// with Close.
type Server struct {
	db        *pip.DB
	logger    *slog.Logger
	slowQuery time.Duration
	sessions  *sessionManager
	met       *metrics
	wal       *wal.Store
	repl      *repl.Primary
	follower  *repl.Follower
	handler   http.Handler
	stop      chan struct{}
	stopOnce  sync.Once
}

// New creates a server over cfg.DB and starts its idle-session sweeper.
func New(cfg Config) *Server {
	if cfg.DB == nil {
		panic("server: Config.DB is required")
	}
	idle := cfg.SessionIdle
	if idle == 0 {
		idle = DefaultSessionIdle
	}
	s := &Server{
		db:        cfg.DB,
		logger:    cfg.Logger,
		slowQuery: cfg.SlowQuery,
		sessions:  newSessionManager(cfg.DB, idle),
		met:       newMetrics(),
		wal:       cfg.WAL,
		repl:      cfg.Repl,
		follower:  cfg.Follower,
		stop:      make(chan struct{}),
	}
	mux := http.NewServeMux()
	//pipvet:allow walcommit session-create settings mutate session-local config only, never durable catalog state
	mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/tables", s.handleTables)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.repl != nil {
		mux.HandleFunc("GET "+repl.StreamPath, s.repl.ServeStream)
		mux.HandleFunc("POST "+repl.AckPath, s.repl.ServeAck)
	}
	s.handler = s.logged(mux)
	go s.sweeper()
	return s
}

// Handler returns the server's HTTP handler (request logging and metrics
// included), for mounting under an http.Server of the caller's choosing.
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP implements http.Handler by delegating to Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// SessionCount returns the number of live sessions (also surfaced by
// /healthz and the pip_sessions_active metric).
func (s *Server) SessionCount() int { return s.sessions.count() }

// Close stops the idle-session sweeper; it is idempotent. In-flight
// requests are governed by the http.Server hosting the handler (use its
// Shutdown for graceful drain).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// sweeper periodically expires idle sessions until Close.
func (s *Server) sweeper() {
	if s.sessions.idle <= 0 {
		return
	}
	t := time.NewTicker(s.sessions.idle / 4)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			if n := s.sessions.sweep(now); n > 0 {
				s.met.sessionsSwept.Add(int64(n))
				if s.logger != nil {
					s.logger.Info("swept idle sessions", "sessions", n)
				}
			}
		}
	}
}

// slowLog emits a Warn record when a statement exceeded the slow-query
// threshold.
func (s *Server) slowLog(query string, d time.Duration, rows int64) {
	if s.logger == nil || s.slowQuery <= 0 || d < s.slowQuery {
		return
	}
	s.logger.Warn("slow query",
		"query", query, "duration", d, "threshold", s.slowQuery, "rows", rows)
}

// ---------------------------------------------------------------------------
// Middleware

// statusWriter captures the response status and byte count for the request
// log. It hides nothing of the connection: Unwrap lets
// http.ResponseController reach the underlying writer (deadlines, hijack),
// and flushes go through FlushError so a handler sees the write error of a
// client that has gone away.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

// WriteHeader records the status.
func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Write counts payload bytes.
func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap returns the wrapped writer, for http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// FlushError flushes the wrapped writer and reports its error; it is the
// method http.ResponseController.Flush looks for first.
func (w *statusWriter) FlushError() error {
	return http.NewResponseController(w.ResponseWriter).Flush()
}

// Flush implements http.Flusher for handlers that assert it (the
// replication stream); the error is theirs to find at the next write.
func (w *statusWriter) Flush() { _ = w.FlushError() }

// logged is the outermost middleware: request counting + structured access
// logging.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.requestsTotal.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if s.logger != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			s.logger.Info("request",
				"method", r.Method, "path", r.URL.Path, "status", status,
				"bytes", sw.bytes, "duration", time.Since(start),
				"remote", r.RemoteAddr)
		}
	})
}

// ---------------------------------------------------------------------------
// JSON plumbing

// writeJSON emits one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errStatus maps a wire error code to its HTTP status.
func errStatus(code string) int {
	switch code {
	case CodeParse, CodeUnknownTable, CodeUnknownColumn, CodeBind:
		return http.StatusBadRequest
	case CodeSession:
		return http.StatusNotFound
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeCancelled:
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// statusClientClosedRequest reports a query ended by client disconnect
// (nginx's non-standard but widely understood 499).
const statusClientClosedRequest = 499

// writeError emits an engine error as a JSON error body. An over-limit
// request body keeps its wire code (bad_request) but answers 413.
func writeError(w http.ResponseWriter, err error) {
	we := EncodeError(err)
	status := errStatus(we.Code)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, struct {
		Error *Error `json:"error"`
	}{we})
}

// maxRequestBody bounds the bytes one request body may make the server read
// and buffer. The largest legitimate statements are bulk INSERTs with bound
// arguments — the benchmark's 1 024-row batch binds ≈ 6 k arguments in
// ≈ 150 KiB — so 64 MiB is far above any of them and still a bound a
// careless or hostile client cannot push the process past.
const maxRequestBody = 64 << 20

// decodeBody parses a JSON request body of at most maxRequestBody bytes into
// dst.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: malformed request body: %w", ErrBadRequest, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Session endpoints

// handleSessionCreate implements POST /v1/session. Its UpdateConfig call
// (in sessionManager.create) touches only the session handle's private
// sampler config — sessions are ephemeral and never replayed, so the WAL
// rightly never sees them.
//
//pipvet:allow walcommit session settings are session-local config, not durable catalog state
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, &req); err != nil {
			writeError(w, err)
			return
		}
	}
	sess, err := s.sessions.create(req.Settings)
	if err != nil {
		writeError(w, err)
		return
	}
	s.met.sessionsTotal.Add(1)
	writeJSON(w, http.StatusOK, SessionResponse{ID: sess.id})
}

// handleSessionDelete implements DELETE /v1/session/{id}.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.close(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// ---------------------------------------------------------------------------
// Statement endpoint

// openRows resolves a QueryRequest to a streaming result: session lookup,
// argument decoding, then parsing and planning the text, all under the
// request context so a disconnected client aborts the sampler.
func (s *Server) openRows(ctx context.Context, req *QueryRequest) (*pip.Rows, func(), error) {
	sess, release, err := s.sessions.acquire(req.Session)
	if err != nil {
		return nil, nil, err
	}
	args, err := decodeArgs(req.Args)
	if err != nil {
		release()
		return nil, nil, err
	}
	rows, err := sess.db.QueryContext(ctx, req.Query, args...)
	if err != nil {
		release()
		return nil, nil, err
	}
	return rows, release, nil
}

// The flush rule of a /v1/query stream: the head and the first row go out
// the moment they are encoded, so time to first row is what it was when
// every row was flushed; after that rows coalesce until streamFlushBytes
// are buffered or streamFlushInterval has passed since the last flush, and
// the terminal chunk flushes whatever is left. The rule is consulted as
// each row is encoded, so a producer slower than the interval still has
// every row flushed as it appears; a row waits in the buffer only while
// the engine is already producing the next one.
//
// Both constants come from the traced scan-stream workload (1 600 rows of
// 93 B per request). One flush per row — a chunked-HTTP frame, a write(2)
// and a client wake-up per line — was 6.7 ms of a 16.3 ms request, and
// flushing every 256 rows (≈ 24 KiB) alone took it from 62 to 82
// requests/s; 32 KiB is that unit rounded up to a power of two, at which a
// 2 000-row reply is 8 flushes. 1 ms is a small fraction of that workload's
// time to last row and far below the per-row cost of any sampled
// statement, so it only ever fires where flushing is already cheap next to
// producing the rows.
const (
	streamFlushBytes    = 32 << 10
	streamFlushInterval = time.Millisecond
)

// flushDue is the flush rule after the n-th row (counting from 1) has been
// appended to a buffer now holding buffered bytes, sinceFlush after the
// previous flush.
func flushDue(n int64, buffered int, sinceFlush time.Duration) bool {
	return n == 1 || buffered >= streamFlushBytes || sinceFlush >= streamFlushInterval
}

// rowStream is the response side of one /v1/query request: the buffer rows
// are encoded into, owned by the request and grown on demand (a one-row
// reply never pays for a full flush unit), and the connection it flushes
// to.
type rowStream struct {
	w    http.ResponseWriter
	rc   *http.ResponseController
	met  *metrics
	buf  []byte
	last time.Time // when the previous flush finished
}

// add encodes one chunk line into the buffer.
func (st *rowStream) add(c *Chunk, cells []pip.Value) {
	st.buf = append(appendChunk(st.buf, c, cells), '\n')
}

// flush writes the buffered lines and pushes them onto the connection. An
// error means the client is gone; nothing more can reach it.
func (st *rowStream) flush() error {
	st.met.streamFlushes.Add(1)
	st.met.streamBytes.Add(int64(len(st.buf)))
	_, err := st.w.Write(st.buf)
	if err == nil {
		err = st.rc.Flush()
	}
	st.buf = st.buf[:0]
	st.last = time.Now()
	return err
}

// handleQuery implements POST /v1/query, the one statement endpoint: every
// statement — SELECT, DDL, DML, SET — is its text plus bound arguments, and
// every reply an NDJSON stream of head, row..., done|err chunks (a statement
// without a result is a bare head and done). Errors before the first chunk
// (unknown session, parse failures) are plain JSON error responses with a
// non-200 status; once streaming begins, failures arrive as a terminal err
// chunk. A failed write ends the statement there, counted as cancelled.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	qt := s.met.startQuery()
	// Safety net: finish is idempotent, so this keeps pip_queries_inflight
	// exact even if the handler unwinds early; the explicit finish below
	// carries the real counts.
	defer qt.finish(0, -1, nil, false)
	start := time.Now()
	rows, release, err := s.openRows(ctx, &req)
	if err != nil {
		qt.finish(0, -1, err, isCancel(err))
		writeError(w, err)
		return
	}
	defer release()
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	st := rowStream{w: w, rc: http.NewResponseController(w), met: s.met}
	st.add(&Chunk{K: "head", Columns: rows.Columns()}, nil)
	werr := st.flush()

	var n int64
	for werr == nil && rows.Next() {
		row := Chunk{K: "row"}
		if c := rows.Cond(); !c.IsTrue() {
			row.Cond = c.String()
		}
		st.add(&row, rows.Values())
		n++
		if flushDue(n, len(st.buf), time.Since(st.last)) {
			werr = st.flush()
		}
	}
	err = rows.Err()
	if werr == nil {
		if err != nil {
			st.add(&Chunk{K: "err", Error: EncodeError(err)}, nil)
		} else {
			st.add(&Chunk{K: "done", Rows: n}, nil)
		}
		werr = st.flush()
	}
	if err == nil {
		err = werr
	}
	qt.finish(n, rows.Samples(), err, werr != nil || isCancel(err) || ctx.Err() != nil)
	s.slowLog(req.Query, time.Since(start), n)
}

// isCancel reports whether err is a context cancellation/timeout.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// handleTables implements GET /v1/tables: the shared catalog listing.
func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	out := []TableInfo{}
	for _, n := range s.db.Core().TableNames() {
		tb, err := s.db.Table(n)
		if err != nil {
			continue // dropped concurrently; the listing is best-effort
		}
		// Row count via a locked snapshot: tb.Len() would read the live
		// slice header unsynchronized against concurrent inserts.
		out = append(out, TableInfo{Name: n, Columns: tb.Schema.Names(), Rows: len(s.db.Core().Snapshot(tb))})
	}
	writeJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Operational endpoints

// handleHealthz implements GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Sessions      int     `json:"sessions"`
	}{"ok", time.Since(s.met.start).Seconds(), s.sessions.count()})
}

// handleMetrics implements GET /metrics (Prometheus text format).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.sessions.count())
	if s.wal != nil {
		writeWALMetrics(w, s.wal.Stats())
	}
	if s.repl != nil {
		writeReplPrimaryMetrics(w, s.repl.Stats())
	}
	if s.follower != nil {
		writeReplFollowerMetrics(w, s.follower.Stats())
	}
}
