// Primary: the serving side of replication. It wraps the primary's
// wal.Store, turns tail-follow subscriptions into record streams framed as
// the log frames them on disk, streams snapshot files to bootstrapping
// replicas whose resume point was pruned, and tracks per-replica progress
// from ack reports.
package repl

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pip/internal/wal"
)

// maxReplicaID bounds a replica id. An id becomes a permanent key of the
// primary's replica table, and both endpoints are mounted on the query
// port too, so an unbounded id would let any client grow that table.
const maxReplicaID = 128

// Primary serves a store's log to replicas. Create one with NewPrimary and
// mount Handler (or the two exported handlers) on the replication
// listener. All methods are safe for concurrent use.
type Primary struct {
	store *wal.Store
	seed  uint64

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
		store:    store,
		seed:     seed,
		replicas: map[string]*replicaInfo{},
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

// ServeStream handles GET /v1/repl/stream: headers naming the seed and log
// position, the newest snapshot file verbatim when the resume point was
// pruned, then every record from there on, framed as in a segment file.
// The stream ends when the client goes away, the store closes, or the
// subscriber falls so far behind that the store drops it (the follower
// then reconnects and resumes).
func (p *Primary) ServeStream(w http.ResponseWriter, r *http.Request) {
	replica, from, err := replicaRequest(r, "from")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	lastSeq := p.store.Stats().LastSeq
	var (
		snapSeq   uint64
		snapImage []byte
	)
	sub, err := p.store.Subscribe(from)
	if errors.Is(err, wal.ErrCompacted) {
		// The resume point was pruned: its records live only inside a
		// snapshot now. Stream the newest snapshot and resume past it —
		// pruning guarantees the records after any retained snapshot are
		// still on disk, so the re-subscribe below cannot miss.
		var snapPath string
		var found bool
		snapSeq, snapPath, found = p.store.NewestSnapshot()
		if !found {
			http.Error(w, "records pruned but no snapshot present", http.StatusInternalServerError)
			return
		}
		snapImage, err = os.ReadFile(snapPath)
		if err == nil {
			sub, err = p.store.Subscribe(snapSeq + 1)
		}
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sub.Close()

	p.mu.Lock()
	p.replicaLocked(replica).streams++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.replicas[replica].streams--
		p.mu.Unlock()
	}()
	p.streamsTotal.Add(1)

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(hdrSeed, strconv.FormatUint(p.seed, 10))
	h.Set(hdrLastSeq, strconv.FormatUint(lastSeq, 10))
	h.Set(hdrSnapshotSeq, strconv.FormatUint(snapSeq, 10))
	h.Set(hdrSnapshotBytes, strconv.Itoa(len(snapImage)))
	w.WriteHeader(http.StatusOK)
	if snapImage != nil {
		if _, err := w.Write(snapImage); err != nil {
			return
		}
		p.snapshotsShipped.Add(1)
	}
	rc := http.NewResponseController(w)
	if rc.Flush() != nil {
		return
	}

	var frame []byte
	for {
		// Client gone, store closed, or subscriber lagged out: end the
		// stream and let the follower reconnect from its own position.
		rec, err := sub.Next(r.Context())
		if err != nil {
			return
		}
		if frame, err = wal.AppendRecord(frame[:0], rec); err != nil {
			// The record encoded once already when the store appended
			// it, so this cannot happen.
			return
		}
		if _, err := w.Write(frame); err != nil || rc.Flush() != nil {
			return
		}
		p.recordsShipped.Add(1)
		p.bytesShipped.Add(uint64(len(frame) - wal.FrameHeaderLen))
	}
}

// ServeAck handles POST /v1/repl/ack?replica=ID&seq=N: record that the
// replica has applied every record through N. The body is ignored.
func (p *Primary) ServeAck(w http.ResponseWriter, r *http.Request) {
	replica, seq, err := replicaRequest(r, "seq")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	p.mu.Lock()
	ri := p.replicaLocked(replica)
	ri.acked = max(ri.acked, seq)
	p.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// replicaRequest reads the two query parameters both endpoints take: the
// replica id, falling back to the client's address and refused unless it
// is 1 to maxReplicaID bytes, and the sequence number named seqParam
// (empty means 1).
func replicaRequest(r *http.Request, seqParam string) (id string, seq uint64, err error) {
	q := r.URL.Query()
	if id = q.Get("replica"); id == "" {
		id = r.RemoteAddr
	}
	if id == "" || len(id) > maxReplicaID {
		return "", 0, fmt.Errorf("replica id must be 1 to %d bytes, got %d", maxReplicaID, len(id))
	}
	seq = 1
	if v := q.Get(seqParam); v != "" {
		if seq, err = strconv.ParseUint(v, 10, 64); err != nil || seq == 0 {
			return "", 0, fmt.Errorf("malformed %s parameter %q", seqParam, v)
		}
	}
	return id, seq, nil
}

// replicaLocked returns the entry for replica id, creating it on first
// sight. The caller holds p.mu.
func (p *Primary) replicaLocked(id string) *replicaInfo {
	ri := p.replicas[id]
	if ri == nil {
		ri = &replicaInfo{}
		p.replicas[id] = ri
	}
	return ri
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
		rs := ReplicaStatus{ID: id, AckedSeq: ri.acked, LagRecords: last - min(last, ri.acked), Connected: ri.streams > 0}
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
		maxLag = max(maxLag, r.LagRecords)
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
