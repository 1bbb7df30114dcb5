package server

import (
	"reflect"
	"unsafe"

	"dcm/internal/connpool"
	"dcm/internal/model"
)

// Used only by this package's tests; no production code calls these.

// ConfiguredConcurrency returns the value set by SetConfiguredConcurrency.
func (s *Server) ConfiguredConcurrency() int { return s.configured }

// Dead reports whether Kill was called.
func (s *Server) Dead() bool { return s.threads.Killed() }

// Params returns the server's service-time law.
func (s *Server) Params() model.Params { return s.params }

// PoolSize returns the current thread pool size.
func (s *Server) PoolSize() int { return gateLedger(s.threads).Size }

// MaxQueue returns the current admission cap (0 = unbounded).
func (s *Server) MaxQueue() int {
	return int(reflect.ValueOf(s.threads).Elem().FieldByName("maxWaiters").Int())
}

// gateLedger returns the accounting of a gate (a *connpool.Gate of any
// kind), so white-box tests can corrupt one field at a time. The gate
// keeps its ledger unexported; the test reaches it by reflection, as no
// production code may.
func gateLedger(g any) *connpool.Ledger {
	f := reflect.ValueOf(g).Elem().FieldByName("l")
	return (*connpool.Ledger)(unsafe.Pointer(f.UnsafeAddr()))
}
