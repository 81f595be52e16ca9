package server

import "pip/internal/sampler"

// SessionConfig returns the sampling configuration of a live session, for
// the external tests of this package.
func (s *Server) SessionConfig(id string) (sampler.Config, bool) {
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	sess := s.sessions.sessions[id]
	if sess == nil {
		return sampler.Config{}, false
	}
	return sess.db.Core().Config(), true
}

// SessionIDs returns the ids of the live sessions.
func (s *Server) SessionIDs() []string {
	s.sessions.mu.Lock()
	defer s.sessions.mu.Unlock()
	ids := make([]string, 0, len(s.sessions.sessions))
	for id := range s.sessions.sessions {
		ids = append(ids, id)
	}
	return ids
}
