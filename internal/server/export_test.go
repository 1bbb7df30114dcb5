package server

// Used only by this package's tests; no production code calls these.

// ConfiguredConcurrency returns the value set by SetConfiguredConcurrency.
func (s *Server) ConfiguredConcurrency() int { return s.configured }

// Dead reports whether Kill was called.
func (s *Server) Dead() bool { return s.threads.Killed() }
