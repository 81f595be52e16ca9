// Follower: the replica side of replication. It owns the full lifecycle —
// connect, header checks, snapshot bootstrap when the resume point was
// pruned, suffix replay, live apply, progress acks — plus reconnection
// with resume-from-seq after transient failures and fail-stop latching on
// integrity failures.
package repl

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pip/internal/core"
	"pip/internal/wal"
)

// ackEveryRecords is how many applied records may accumulate before the
// follower reports progress mid-stream. The follower also acks whenever
// it has applied everything it has read, so the primary's view of its
// lag converges right after the last apply.
const ackEveryRecords = 32

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Primary is the primary's replication address: "host:port",
	// "pip://host:port", or "http://host:port".
	Primary string
	// ReplicaID labels this replica in the primary's metrics and ack
	// accounting. Defaults to a random id, fresh per process.
	ReplicaID string
	// Seed is the replica's boot world seed; it must equal the primary's
	// or the handshake fails with ErrSeedMismatch.
	Seed uint64
	// Logger receives connection lifecycle events (nil for none).
	Logger *slog.Logger
	// ReconnectBackoff is the initial delay before redialing after a
	// transient failure, doubling to 16x (default 250ms).
	ReconnectBackoff time.Duration
}

// Follower replicates a primary's log onto db. New marks db read-only
// (naming the primary) and reserves mutation rights for its own applier
// handles; Run drives the lifecycle until the context ends or an
// integrity failure latches. All observation methods are safe for
// concurrent use while Run is active.
type Follower struct {
	db      *core.DB
	base    string // http://host:port
	display string // pip://host:port, shown by ErrReadOnly
	id      string
	seed    uint64
	log     *slog.Logger
	client  *http.Client
	backoff time.Duration

	applied    atomic.Uint64 // newest applied record
	primarySeq atomic.Uint64 // primary's newest record, as last heard
	records    atomic.Uint64 // records applied
	bytesIn    atomic.Uint64 // payload bytes applied
	snapshots  atomic.Uint64 // snapshot images loaded
	reconnects atomic.Uint64 // redials after transient failures
	connected  atomic.Bool

	fatalMu sync.Mutex
	fatal   error
}

// NewFollower prepares db to follow the primary: the database is marked
// read-only (mutating statements fail with core.ErrReadOnly naming the
// primary) and the root handle becomes the applier root. Call Run to
// start streaming.
func NewFollower(db *core.DB, o FollowerOptions) *Follower {
	base, display := normalizePrimary(o.Primary)
	id := o.ReplicaID
	if id == "" {
		var b [6]byte
		_, _ = rand.Read(b[:])
		id = "replica-" + hex.EncodeToString(b[:])
	}
	logger := o.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	backoff := o.ReconnectBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	db.SetReadOnly(display)
	db.MarkApplier()
	return &Follower{
		db:      db,
		base:    base,
		display: display,
		id:      id,
		seed:    o.Seed,
		log:     logger,
		client:  &http.Client{}, // no overall timeout: streams are long-lived
		backoff: backoff,
	}
}

// ReplicaID returns the id this follower presents to the primary.
func (f *Follower) ReplicaID() string { return f.id }

// AppliedSeq returns the newest applied record's sequence number.
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// Err returns the latched integrity failure (nil while healthy). Once
// non-nil the follower has stopped applying and will not reconnect.
func (f *Follower) Err() error {
	f.fatalMu.Lock()
	defer f.fatalMu.Unlock()
	return f.fatal
}

// Run streams from the primary until ctx ends (returns nil) or an
// integrity failure latches (returns it; Err reports it from then on).
// Transient failures — refused connections, dropped streams, primary
// restarts — reconnect with exponential backoff, resuming from the
// applied position.
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.backoff
	for {
		madeProgress, err := f.streamOnce(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil && isFatal(err) {
			f.fatalMu.Lock()
			f.fatal = err
			f.fatalMu.Unlock()
			f.log.Error("replication fail-stop", "err", err, "applied", f.applied.Load())
			return err
		}
		if madeProgress {
			backoff = f.backoff
		}
		f.reconnects.Add(1)
		f.log.Info("replication stream ended, reconnecting",
			"err", err, "applied", f.applied.Load(), "backoff", backoff)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff < 16*f.backoff {
			backoff *= 2
		}
	}
}

// isFatal classifies stream failures: integrity errors latch and stop the
// follower; everything else is transient and reconnects.
func isFatal(err error) bool {
	return errors.Is(err, ErrStreamCorrupt) ||
		errors.Is(err, ErrStreamGap) ||
		errors.Is(err, ErrSeedMismatch) ||
		errors.Is(err, ErrPrimaryBehind) ||
		errors.Is(err, wal.ErrReplayDiverged) ||
		errors.Is(err, wal.ErrSnapshotCorrupt)
}

// streamOnce runs one connection epoch: dial, check the headers, load the
// snapshot the body opens with (if any), then apply records until the
// stream ends. It reports whether any forward progress was made (for
// backoff reset).
func (f *Follower) streamOnce(ctx context.Context) (progress bool, err error) {
	q := url.Values{"from": {strconv.FormatUint(f.applied.Load()+1, 10)}, "replica": {f.id}}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+StreamPath+"?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("repl: primary returned %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	f.connected.Store(true)
	defer f.connected.Store(false)

	var hdr [4]uint64
	for i, name := range []string{hdrSeed, hdrLastSeq, hdrSnapshotSeq, hdrSnapshotBytes} {
		v := resp.Header.Get(name)
		if hdr[i], err = strconv.ParseUint(v, 10, 64); err != nil {
			return false, fmt.Errorf("%w: header %s: %q", ErrStreamCorrupt, name, v)
		}
	}
	seed, lastSeq, snapSeq, snapBytes := hdr[0], hdr[1], hdr[2], hdr[3]
	if seed != f.seed {
		return false, fmt.Errorf("%w: primary seed %d, replica seed %d", ErrSeedMismatch, seed, f.seed)
	}
	applied := f.applied.Load()
	if lastSeq < applied {
		return false, fmt.Errorf("%w: primary ends at %d, replica applied %d", ErrPrimaryBehind, lastSeq, applied)
	}
	f.primarySeq.Store(lastSeq)

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if (snapSeq == 0) != (snapBytes == 0) || snapBytes > math.MaxInt64 {
		return false, fmt.Errorf("%w: snapshot covering %d declared %d bytes long", ErrStreamCorrupt, snapSeq, snapBytes)
	}
	if snapSeq > 0 {
		if snapSeq < applied {
			return false, fmt.Errorf("%w: primary streams snapshot covering %d, replica applied %d", ErrPrimaryBehind, snapSeq, applied)
		}
		// The image is buffered as it arrives, never allocated at its
		// declared size, so a lying header costs only the bytes sent.
		var img bytes.Buffer
		if _, err := io.CopyN(&img, br, int64(snapBytes)); err != nil {
			if errors.Is(err, io.EOF) {
				// The body ended cleanly inside the image: the primary
				// declared bytes it never sent. (A cut connection reads
				// as io.ErrUnexpectedEOF and reconnects.)
				return false, fmt.Errorf("%w: body ends %d bytes into a %d-byte snapshot image", ErrStreamCorrupt, img.Len(), snapBytes)
			}
			return false, err
		}
		seq, err := wal.DecodeSnapshotImage(img.Bytes(), f.db)
		if err != nil {
			return false, err
		}
		if seq != snapSeq {
			return false, fmt.Errorf("%w: snapshot image covers %d, header says %d", ErrStreamCorrupt, seq, snapSeq)
		}
		f.snapshots.Add(1)
		f.log.Info("replication snapshot loaded", "covers_seq", seq)
		f.ack(ctx, seq)
		f.applied.Store(seq)
		applied, progress = seq, true
	}

	ap := wal.NewApplier(f.db, applied)
	var sinceLastAck uint64
	for {
		rec, n, rerr := wal.ReadRecord(br)
		switch {
		case errors.Is(rerr, io.EOF) || errors.Is(rerr, io.ErrUnexpectedEOF):
			// Network cut or primary shutdown: transient.
			return progress, nil
		case errors.Is(rerr, wal.ErrCorruptRecord):
			return progress, fmt.Errorf("%w: %w", ErrStreamCorrupt, rerr)
		case rerr != nil:
			return progress, rerr
		}
		if aerr := ap.Apply(ctx, rec); aerr != nil {
			if errors.Is(aerr, wal.ErrGap) {
				return progress, fmt.Errorf("%w: %w", ErrStreamGap, aerr)
			}
			// ErrReplayDiverged (or a context cancellation mid-apply).
			return progress, aerr
		}
		f.records.Add(1)
		f.bytesIn.Add(uint64(n))
		if rec.Seq > f.primarySeq.Load() {
			f.primarySeq.Store(rec.Seq)
		}
		progress = true
		// Ack before publishing the new position, so a replica that
		// reports having applied N has already told the primary.
		if sinceLastAck++; sinceLastAck >= ackEveryRecords || br.Buffered() == 0 {
			sinceLastAck = 0
			f.ack(ctx, rec.Seq)
		}
		f.applied.Store(rec.Seq)
	}
}

// ack reports applied progress to the primary, best-effort: a lost ack
// only delays lag accounting, never correctness.
func (f *Follower) ack(ctx context.Context, seq uint64) {
	q := url.Values{"replica": {f.id}, "seq": {strconv.FormatUint(seq, 10)}}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+AckPath+"?"+q.Encode(), nil)
	if err != nil {
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
}

// WaitForSeq blocks until the follower has applied through seq, the
// follower latches an integrity failure (returned), or ctx ends
// (ctx.Err()). Tests and the CI smoke use it to await catch-up.
func (f *Follower) WaitForSeq(ctx context.Context, seq uint64) error {
	for {
		if err := f.Err(); err != nil {
			return err
		}
		if f.applied.Load() >= seq {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// FollowerStats is a point-in-time snapshot of the follower's counters,
// rendered by /metrics and the SHOW STATS repl scope.
type FollowerStats struct {
	Primary         string
	ReplicaID       string
	AppliedSeq      uint64
	PrimarySeq      uint64
	LagRecords      uint64
	RecordsApplied  uint64
	BytesApplied    uint64
	SnapshotsLoaded uint64
	Reconnects      uint64
	Connected       bool
	FailStopped     bool
}

// Stats returns the follower's counters.
func (f *Follower) Stats() FollowerStats {
	applied, primary := f.applied.Load(), f.primarySeq.Load()
	return FollowerStats{
		Primary:         f.display,
		ReplicaID:       f.id,
		AppliedSeq:      applied,
		PrimarySeq:      primary,
		LagRecords:      primary - min(primary, applied),
		RecordsApplied:  f.records.Load(),
		BytesApplied:    f.bytesIn.Load(),
		SnapshotsLoaded: f.snapshots.Load(),
		Reconnects:      f.reconnects.Load(),
		Connected:       f.connected.Load(),
		FailStopped:     f.Err() != nil,
	}
}

// StatsMap flattens the follower's counters for the SHOW STATS repl scope.
func (f *Follower) StatsMap() map[string]float64 {
	st := f.Stats()
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return map[string]float64{
		"role_replica":     1,
		"applied_seq":      float64(st.AppliedSeq),
		"primary_seq":      float64(st.PrimarySeq),
		"lag_records":      float64(st.LagRecords),
		"records_applied":  float64(st.RecordsApplied),
		"bytes_applied":    float64(st.BytesApplied),
		"snapshots_loaded": float64(st.SnapshotsLoaded),
		"reconnects":       float64(st.Reconnects),
		"connected":        b2f(st.Connected),
		"fail_stopped":     b2f(st.FailStopped),
	}
}
