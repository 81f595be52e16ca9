// Command pipd is the PIP network server: it hosts one shared
// probabilistic database behind the HTTP/JSON wire protocol of
// internal/server, multiplexing concurrent remote sessions with private
// SET settings, streaming query results, and propagating client
// disconnects into the sampler as cancellation.
//
//	pipd [-addr :7432] [-seed N] [-workers N] [-epsilon F] [-delta F]
//	     [-samples N] [-max-samples N] [-session-timeout D]
//	     [-data-dir DIR] [-fsync] [-snapshot-every N]
//	     [-replicate-addr addr] [-follow pip://host:port] [-replica-id ID]
//	     [-slow-query D] [-debug-addr addr] [-demo] [-quiet]
//
// Remote clients connect with the database/sql driver and a
// pip://host:port DSN, with pipql -connect, or with any HTTP client (see
// docs/OPERATIONS.md for the wire protocol). Request logging is structured
// (log/slog, logfmt-style text to stderr); -slow-query warns on statements
// slower than the threshold, and -debug-addr serves net/http/pprof on a
// separate listener kept off the query port.
//
// With -data-dir the database is durable: the directory is recovered
// before the listener opens (latest catalog snapshot + write-ahead log
// replay), every catalog-mutating statement is logged — and, with -fsync
// (the default), synced — before it is acknowledged, and -snapshot-every
// bounds replay time by snapshotting the catalog every N logged
// statements. Without -data-dir the database is in-memory, as before.
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests drain
// (bounded by the shutdown timeout), a final snapshot is taken when a data
// directory is configured, then the process exits.
//
// # Replication
//
// With -replicate-addr (requires -data-dir) the server is a replication
// primary: a second listener serves committed write-ahead-log records (and
// whole catalog snapshots, for replicas whose resume point was pruned) as
// an NDJSON stream to any number of replicas. With -follow pip://host:port
// the server is a read-only replica: it bootstraps from the primary's
// stream (snapshot, then log replay through the ordinary SQL path), applies
// live records as they commit, and serves queries whose answers are
// bit-identical to the primary's at equal log positions. Writes on a
// replica are rejected with a read_only error naming the primary; SET still
// works because session settings are local. A replica needs the same -seed
// as its primary (the handshake enforces it) and must not set -data-dir:
// its state is exactly the primary's log, reproduced, never its own.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pip"
	"pip/internal/repl"
	"pip/internal/sampler"
	"pip/internal/server"
	"pip/internal/wal"
)

func main() {
	// A flag named after a session setting (-max-samples for max_samples)
	// takes its help text and its validation from the settings table.
	settingOf := func(flagName string) string { return strings.ReplaceAll(flagName, "-", "_") }
	help := func(flagName string) string { return sampler.SettingHelp(settingOf(flagName)) }
	var (
		addr        = flag.String("addr", ":7432", "listen address")
		seed        = flag.Uint64("seed", 1, help("seed"))
		workers     = flag.Int("workers", 0, help("workers"))
		epsilon     = flag.Float64("epsilon", 0, help("epsilon")+"; 0 = default")
		delta       = flag.Float64("delta", 0, help("delta")+"; 0 = default")
		samples     = flag.Int("samples", 0, help("samples"))
		maxSamples  = flag.Int("max-samples", 0, help("max-samples")+"; 0 = default")
		sessionIdle = flag.Duration("session-timeout", server.DefaultSessionIdle, "expire sessions idle this long (0 = never)")
		dataDir     = flag.String("data-dir", "", "durable data directory: recover on boot, log statements (empty = in-memory)")
		fsync       = flag.Bool("fsync", true, "fsync the write-ahead log on every commit (requires -data-dir)")
		snapEvery   = flag.Int("snapshot-every", 4096, "snapshot the catalog every N logged statements (0 = only on shutdown)")
		replAddr    = flag.String("replicate-addr", "", "serve the replication stream on this address (requires -data-dir)")
		follow      = flag.String("follow", "", "follow a primary (pip://host:port) as a read-only replica")
		replicaID   = flag.String("replica-id", "", "stable replica name reported to the primary (empty = random)")
		shutdown    = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain bound on SIGINT/SIGTERM")
		slowQuery   = flag.Duration("slow-query", 0, "warn on statements slower than this (0 = off)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
		demo        = flag.Bool("demo", false, "preload the paper's running example (orders, shipping)")
		quiet       = flag.Bool("quiet", false, "disable request logging")
	)
	flag.Parse()

	// A bad base value would silently corrupt every session's sampling
	// guarantee. 0 keeps the engine default.
	flag.Visit(func(f *flag.Flag) {
		var scratch sampler.Config
		if help(f.Name) != "" && f.Value.String() != "0" {
			if err := sampler.ApplyOpenSetting(&scratch, settingOf(f.Name), f.Value.String()); err != nil {
				fmt.Fprintf(os.Stderr, "pipd: -%s: %v\n", f.Name, err)
				os.Exit(2)
			}
		}
	})
	if *snapEvery < 0 {
		fmt.Fprintln(os.Stderr, "pipd: -snapshot-every must be non-negative")
		os.Exit(2)
	}
	if *replAddr != "" && *dataDir == "" {
		// The replication stream ships the write-ahead log; without a data
		// directory there is no log to ship.
		fmt.Fprintln(os.Stderr, "pipd: -replicate-addr requires -data-dir")
		os.Exit(2)
	}
	if *follow != "" {
		// A replica's state is the primary's log, reproduced. A local data
		// directory, a second primary role, or a demo preload would all give
		// it writes of its own — exactly what a replica must never have.
		switch {
		case *dataDir != "":
			fmt.Fprintln(os.Stderr, "pipd: -follow and -data-dir are mutually exclusive (a replica's state is the primary's log)")
			os.Exit(2)
		case *replAddr != "":
			fmt.Fprintln(os.Stderr, "pipd: -follow and -replicate-addr are mutually exclusive")
			os.Exit(2)
		case *demo:
			fmt.Fprintln(os.Stderr, "pipd: -follow and -demo are mutually exclusive (replicas reject writes)")
			os.Exit(2)
		}
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	db := pip.Open(pip.Options{
		Seed:         *seed,
		Workers:      *workers,
		Epsilon:      *epsilon,
		Delta:        *delta,
		FixedSamples: *samples,
		MaxSamples:   *maxSamples,
	})
	// Recover and attach the write-ahead log before anything (demo load
	// included) can mutate the catalog or open the listener: recovery must
	// see exactly the statements that were acknowledged pre-crash, and no
	// statement may be acknowledged unlogged.
	var store *wal.Store
	if *dataDir != "" {
		var info *wal.RecoveryInfo
		var err error
		store, info, err = wal.Open(*dataDir, db.Core(), wal.Options{Fsync: *fsync, SnapshotEvery: *snapEvery})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipd: recover %s: %v\n", *dataDir, err)
			os.Exit(1)
		}
		if logger != nil {
			logger.Info("recovered", "data_dir", *dataDir,
				"snapshot_seq", info.SnapshotSeq, "replayed", info.Replayed,
				"last_seq", info.LastSeq, "duration", info.Duration)
			if info.TailErr != nil {
				// Expected after a crash mid-append: the torn, never-acknowledged
				// tail was dropped. Worth a warning so operators can correlate.
				logger.Warn("dropped torn log tail", "bytes", info.TailTruncated, "reason", info.TailErr.Error())
			}
			for _, skipped := range info.SkippedSnapshots {
				logger.Warn("skipped unreadable snapshot", "reason", skipped)
			}
		}
	}
	if *demo {
		// A recovered catalog already holds its data (demo tables included if
		// it was seeded with -demo originally); reloading would double rows.
		if len(db.Core().TableNames()) > 0 {
			if logger != nil {
				logger.Info("skipping demo load: recovered catalog is not empty")
			}
		} else {
			loadDemo(db)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Replication roles. The primary serves its log on a dedicated listener
	// kept off the query port; the follower marks the database read-only
	// (inside NewFollower) before the query listener opens, so no client
	// write can ever slip in ahead of the first applied record.
	var primary *repl.Primary
	var replHS *http.Server
	if *replAddr != "" {
		primary = repl.NewPrimary(store, *seed)
		db.Core().RegisterStatsScope("repl", primary.StatsMap)
		replHS = &http.Server{Addr: *replAddr, Handler: primary.Handler()}
		go func() {
			if err := replHS.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "pipd: replication listener: %v\n", err)
				os.Exit(1)
			}
		}()
		if logger != nil {
			logger.Info("replication enabled", "addr", *replAddr)
		}
	}
	var follower *repl.Follower
	if *follow != "" {
		follower = repl.NewFollower(db.Core(), repl.FollowerOptions{
			Primary:   *follow,
			ReplicaID: *replicaID,
			Seed:      *seed,
			Logger:    logger,
		})
		db.Core().RegisterStatsScope("repl", follower.StatsMap)
		go func() {
			// Run reconnects through transient failures and returns only on
			// ctx cancellation (nil) or an integrity failure: fail-stop
			// rather than keep serving reads that may no longer match the
			// primary's log.
			if err := follower.Run(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "pipd: replication failed: %v\n", err)
				os.Exit(1)
			}
		}()
		if logger != nil {
			logger.Info("following", "primary", *follow, "replica_id", follower.ReplicaID(), "seed", *seed)
		}
	}

	idle := *sessionIdle
	if idle == 0 {
		idle = -1 // Config.SessionIdle: negative disables, zero means default.
	}
	srv := server.New(server.Config{DB: db, Logger: logger, SlowQuery: *slowQuery, SessionIdle: idle, WAL: store, Repl: primary, Follower: follower})
	defer srv.Close()

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *debugAddr != "" {
		// pprof stays on its own listener so profiling endpoints are never
		// reachable through the query port. The blank net/http/pprof import
		// registered its handlers on http.DefaultServeMux.
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pipd: debug listener: %v\n", err)
			}
		}()
		if logger != nil {
			logger.Info("pprof enabled", "addr", *debugAddr)
		}
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if logger != nil {
		logger.Info("listening", "addr", *addr, "seed", *seed, "session_timeout", *sessionIdle)
	}

	select {
	case err := <-errc:
		// Listener failed before shutdown was requested.
		fmt.Fprintf(os.Stderr, "pipd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	if logger != nil {
		logger.Info("shutting down", "drain_timeout", *shutdown)
	}
	sctx, cancel := context.WithTimeout(context.Background(), *shutdown)
	defer cancel()
	if replHS != nil {
		// Close, not Shutdown: open replication streams are held by live
		// followers and would block a graceful drain forever; they resume
		// from their own acked position on reconnect.
		replHS.Close()
	}
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "pipd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if store != nil {
		// Final snapshot so the next boot recovers without replay, then a
		// clean detach. Failures are non-fatal: the log already holds
		// everything a snapshot would.
		if err := store.Snapshot(); err != nil {
			fmt.Fprintf(os.Stderr, "pipd: final snapshot: %v\n", err)
		}
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pipd: close wal: %v\n", err)
		}
	}
}

// loadDemo installs the paper's running example (orders x shipping).
func loadDemo(db *pip.DB) {
	for _, stmt := range server.DemoStatements {
		db.MustExec(stmt)
	}
}
