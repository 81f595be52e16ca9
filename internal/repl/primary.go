// Primary: the serving side of replication. It wraps the primary's
// wal.Store, turns tail-follow subscriptions into NDJSON record streams,
// streams snapshot files to bootstrapping replicas whose resume point was
// pruned, and tracks per-replica progress from ack reports.
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pip/internal/wal"
)

// snapChunkSize is how many snapshot-image bytes ride in one snap frame.
// Base64 inflates it by 4/3 on the wire; 256KiB keeps lines comfortably
// under every reader buffer while amortizing per-frame JSON overhead.
const snapChunkSize = 256 << 10

// defaultPingEvery is how often an idle stream sends a keep-alive ping.
// Pings also refresh the replica's view of the primary's position, so lag
// metrics converge to zero within one interval of the last write.
const defaultPingEvery = 3 * time.Second

// Primary serves a store's log to replicas. Create one with NewPrimary and
// mount Handler (or the two exported handlers) on the replication
// listener. All methods are safe for concurrent use.
type Primary struct {
	store *wal.Store
	seed  uint64
	// PingEvery is the idle keep-alive interval (default 3s). Set it
	// before serving; tests shorten it to converge lag quickly.
	PingEvery time.Duration

	mu       sync.Mutex
	replicas map[string]*replicaInfo

	recordsShipped   atomic.Uint64
	bytesShipped     atomic.Uint64
	snapshotsShipped atomic.Uint64
	streamsTotal     atomic.Uint64
}

// replicaInfo is the primary's view of one replica, keyed by the id the
// replica presents. It outlives disconnects so lag stays observable while
// a replica is down — exactly when an operator wants to see it.
type replicaInfo struct {
	acked   uint64
	streams int
}

// NewPrimary wraps a store for serving. seed is the primary's boot world
// seed — the "seed" half of the (seed, statement log) pair — which every
// follower must match for replayed state to be bit-identical.
func NewPrimary(store *wal.Store, seed uint64) *Primary {
	return &Primary{
		store:     store,
		seed:      seed,
		PingEvery: defaultPingEvery,
		replicas:  map[string]*replicaInfo{},
	}
}

// Handler returns the replication endpoints as one http.Handler, for
// mounting on a dedicated replication listener (pipd -replicate-addr).
func (p *Primary) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+StreamPath, p.ServeStream)
	mux.HandleFunc("POST "+AckPath, p.ServeAck)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ok\":true,\"last_seq\":%d}\n", p.store.Stats().LastSeq)
	})
	return mux
}

// ServeStream handles GET /v1/repl/stream: an NDJSON stream of hello,
// optional snapshot, then records from the requested resume point onward,
// held open with pings while idle. The stream ends when the client goes
// away, the store closes, or the subscriber falls so far behind that the
// store drops it (the follower then reconnects and resumes).
func (p *Primary) ServeStream(w http.ResponseWriter, r *http.Request) {
	from, err := parseSeqParam(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	replica := r.URL.Query().Get("replica")
	if replica == "" {
		replica = r.RemoteAddr
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	hello := streamChunk{K: "hello", Seed: p.seed, LastSeq: p.store.Stats().LastSeq}
	var snapImage []byte
	sub, err := p.store.Subscribe(from)
	if errors.Is(err, wal.ErrCompacted) {
		// The resume point was pruned: its records live only inside a
		// snapshot now. Stream the newest snapshot and resume past it —
		// pruning guarantees the records after any retained snapshot are
		// still on disk, so the re-subscribe below cannot miss.
		snapSeq, snapPath, found := p.store.NewestSnapshot()
		if !found {
			http.Error(w, "records pruned but no snapshot present", http.StatusInternalServerError)
			return
		}
		snapImage, err = os.ReadFile(snapPath)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		hello.SnapSeq = snapSeq
		sub, err = p.store.Subscribe(snapSeq + 1)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sub.Close()

	p.streamOpened(replica)
	defer p.streamClosed(replica)
	p.streamsTotal.Add(1)

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	send := func(c streamChunk) bool {
		if err := enc.Encode(c); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	if !send(hello) {
		return
	}
	if snapImage != nil {
		for off := 0; off < len(snapImage); off += snapChunkSize {
			end := min(off+snapChunkSize, len(snapImage))
			if !send(streamChunk{K: "snap", Data: snapImage[off:end]}) {
				return
			}
		}
		if !send(streamChunk{K: "snapend", CRC: wal.Checksum(snapImage), Size: int64(len(snapImage))}) {
			return
		}
		p.snapshotsShipped.Add(1)
	}

	ping := p.PingEvery
	if ping <= 0 {
		ping = defaultPingEvery
	}
	for {
		waitCtx, cancel := context.WithTimeout(r.Context(), ping)
		rec, err := sub.Next(waitCtx)
		cancel()
		switch {
		case err == nil:
			payload, perr := wal.EncodePayload(rec)
			if perr != nil {
				// The record encoded once already when the store appended
				// it, so this cannot happen; end the stream rather than
				// ship a frame we cannot checksum.
				return
			}
			if !send(streamChunk{K: "rec", Seq: rec.Seq, Payload: payload, PCRC: wal.Checksum(payload)}) {
				return
			}
			p.recordsShipped.Add(1)
			p.bytesShipped.Add(uint64(len(payload)))
		case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
			if !send(streamChunk{K: "ping", LastSeq: p.store.Stats().LastSeq}) {
				return
			}
		default:
			// Client gone, store closed, or subscriber lagged out: end the
			// stream and let the follower reconnect from its own position.
			return
		}
	}
}

// maxAckBody bounds the body of an ack, {"replica":…,"seq":…}: room for any
// sensible replica id, and far below what could make a hostile client on
// the query port (which mounts this handler too) cost the primary memory.
const maxAckBody = 1 << 10

// ServeAck handles POST /v1/repl/ack: record a replica's applied position.
// A body over maxAckBody is refused with 413 before it is decoded.
func (p *Primary) ServeAck(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAckBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, "ack body too large", http.StatusRequestEntityTooLarge)
		return
	}
	var req ackRequest
	if err != nil || json.Unmarshal(body, &req) != nil || req.Replica == "" {
		http.Error(w, "malformed ack", http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	ri := p.replicas[req.Replica]
	if ri == nil {
		ri = &replicaInfo{}
		p.replicas[req.Replica] = ri
	}
	if req.Seq > ri.acked {
		ri.acked = req.Seq
	}
	p.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// streamOpened registers a replica's live stream.
func (p *Primary) streamOpened(replica string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ri := p.replicas[replica]
	if ri == nil {
		ri = &replicaInfo{}
		p.replicas[replica] = ri
	}
	ri.streams++
}

// streamClosed drops a replica's live stream registration.
func (p *Primary) streamClosed(replica string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ri := p.replicas[replica]; ri != nil {
		ri.streams--
	}
}

// ReplicaStatus is the primary's view of one replica for telemetry.
type ReplicaStatus struct {
	ID         string
	AckedSeq   uint64
	LagRecords uint64
	Connected  bool
}

// PrimaryStats is a point-in-time snapshot of the primary's replication
// counters, rendered by /metrics and the SHOW STATS repl scope.
type PrimaryStats struct {
	LastSeq           uint64
	ConnectedReplicas int
	RecordsShipped    uint64
	BytesShipped      uint64
	SnapshotsShipped  uint64
	StreamsTotal      uint64
	Replicas          []ReplicaStatus // sorted by ID
}

// Stats returns the primary's counters with per-replica progress sorted by
// replica id, so every rendering is stable.
func (p *Primary) Stats() PrimaryStats {
	last := p.store.Stats().LastSeq
	st := PrimaryStats{
		LastSeq:          last,
		RecordsShipped:   p.recordsShipped.Load(),
		BytesShipped:     p.bytesShipped.Load(),
		SnapshotsShipped: p.snapshotsShipped.Load(),
		StreamsTotal:     p.streamsTotal.Load(),
	}
	p.mu.Lock()
	ids := make([]string, 0, len(p.replicas))
	for id := range p.replicas {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ri := p.replicas[id]
		rs := ReplicaStatus{ID: id, AckedSeq: ri.acked, Connected: ri.streams > 0}
		if last > ri.acked {
			rs.LagRecords = last - ri.acked
		}
		if rs.Connected {
			st.ConnectedReplicas++
		}
		st.Replicas = append(st.Replicas, rs)
	}
	p.mu.Unlock()
	return st
}

// StatsMap flattens the primary's counters for the SHOW STATS repl scope.
// Per-replica rows fold into the worst-case lag; /metrics carries the
// per-replica breakdown with labels.
func (p *Primary) StatsMap() map[string]float64 {
	st := p.Stats()
	var maxLag uint64
	for _, r := range st.Replicas {
		if r.LagRecords > maxLag {
			maxLag = r.LagRecords
		}
	}
	return map[string]float64{
		"role_primary":       1,
		"last_seq":           float64(st.LastSeq),
		"connected_replicas": float64(st.ConnectedReplicas),
		"known_replicas":     float64(len(st.Replicas)),
		"records_shipped":    float64(st.RecordsShipped),
		"bytes_shipped":      float64(st.BytesShipped),
		"snapshots_shipped":  float64(st.SnapshotsShipped),
		"streams_total":      float64(st.StreamsTotal),
		"max_replica_lag":    float64(maxLag),
	}
}

// parseSeqParam parses the from query parameter (empty means 1).
func parseSeqParam(s string) (uint64, error) {
	if s == "" {
		return 1, nil
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("malformed from parameter %q", s)
	}
	return n, nil
}
