package server

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pip"
	"pip/internal/sampler"
)

// session is one remote client's state: a database view with private
// sampling settings (pip.DB.Session) over the server's shared catalog.
// Statement-level requests name the session by id; concurrent requests on
// one session are safe but share its settings.
type session struct {
	id string
	db *pip.DB

	mu       sync.Mutex
	lastUsed time.Time
	inflight int
}

// touch marks the session used now and pins it against the idle sweep for
// the duration of a request; the returned func releases the pin.
func (s *session) touch() func() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.inflight++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.lastUsed = time.Now()
		s.inflight--
		s.mu.Unlock()
	}
}

// sessionManager owns the server's session table: creation (with initial
// settings), lookup, explicit close, and an idle sweep that reclaims
// sessions whose clients vanished without a DELETE.
type sessionManager struct {
	base *pip.DB
	idle time.Duration

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
}

// newSessionManager creates a manager over the shared database. idle <= 0
// disables expiry.
func newSessionManager(base *pip.DB, idle time.Duration) *sessionManager {
	return &sessionManager{base: base, idle: idle, sessions: map[string]*session{}}
}

// create allocates a session, applying the requested settings before it
// serves its first statement.
func (m *sessionManager) create(settings map[string]json.Number) (*session, error) {
	db := m.base.Session()
	// Names, types and bounds are the settings table of internal/sampler
	// under its open-time rule (seed 0 = engine default). No request can
	// reach db yet, so the validated copy is installed whole.
	cfg := db.Core().Config()
	for k, raw := range settings {
		if err := sampler.ApplyOpenSetting(&cfg, k, raw.String()); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
		}
	}
	db.Core().UpdateConfig(func(c *sampler.Config) { *c = cfg })
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("s%d-%08x", m.nextID, randTag())
	s := &session{id: id, db: db, lastUsed: time.Now()}
	m.sessions[id] = s
	m.mu.Unlock()
	return s, nil
}

// randTag draws 32 random bits to make session ids unguessable across
// server restarts (they are capability tokens of a sort, not security).
func randTag() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// acquire resolves a session id and pins it against the idle sweep in one
// step (lookup and touch under the manager lock, so the sweeper can never
// reclaim a session between resolution and use); the returned release
// func unpins it. A miss wraps ErrSessionUnknown.
func (m *sessionManager) acquire(id string) (*session, func(), error) {
	m.mu.Lock()
	s := m.sessions[id]
	if s == nil {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("%w %q (closed, expired, or never created)", ErrSessionUnknown, id)
	}
	release := s.touch()
	m.mu.Unlock()
	return s, release, nil
}

// close removes a session; its in-flight requests finish normally.
func (m *sessionManager) close(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[id]; !ok {
		return fmt.Errorf("%w %q (closed, expired, or never created)", ErrSessionUnknown, id)
	}
	delete(m.sessions, id)
	return nil
}

// count returns the number of live sessions.
func (m *sessionManager) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// sweep expires sessions idle beyond the configured timeout with no
// requests in flight, returning how many it reclaimed.
func (m *sessionManager) sweep(now time.Time) int {
	if m.idle <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, s := range m.sessions {
		s.mu.Lock()
		expired := s.inflight == 0 && now.Sub(s.lastUsed) > m.idle
		s.mu.Unlock()
		if expired {
			delete(m.sessions, id)
			n++
		}
	}
	return n
}
