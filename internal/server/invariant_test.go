package server

import (
	"strings"
	"testing"
	"time"

	"dcm/internal/invariant"
)

// TestCheckInvariantCleanLifecycle verifies the structural self-check
// passes through a normal acquire/queue/exec/release lifecycle.
func TestCheckInvariantCleanLifecycle(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 2)
	check := func(stage string) {
		t.Helper()
		if err := srv.CheckInvariant(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	check("fresh")
	var sessions []*Session
	for i := 0; i < 4; i++ { // 2 granted, 2 queued
		srv.Acquire(func(sess *Session) { sessions = append(sessions, sess) })
	}
	check("queued")
	for _, sess := range sessions {
		sess := sess
		sess.Exec(func() { eng.Schedule(time.Millisecond, sess.Release) })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	for len(sessions) > 0 {
		sess := sessions[0]
		sessions = sessions[1:]
		if !sess.w.Released() {
			sess.Exec(func() { sess.Release() })
		}
	}
	if err := eng.Run(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	check("drained")
	if srv.Active() != 0 {
		t.Fatalf("active = %d after drain", srv.Active())
	}
}

// TestCheckInvariantDetectsCorruption corrupts server accounting one axis
// at a time and asserts CheckInvariant names each breakage.
func TestCheckInvariantDetectsCorruption(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(s *Server)
		want    string
	}{
		{"negative-active", func(s *Server) { gateLedger(s.threads).Held = -1 }, "negative"},
		{"executing-above-active", func(s *Server) { s.executing = s.Active() + 1 }, "executing"},
		{"zero-pool", func(s *Server) { gateLedger(s.threads).Size = 0 }, "pool size"},
		{"grant-ledger-drift", func(s *Server) { gateLedger(s.threads).Grants.Inc(1) }, "grants"},
		{"release-ledger-drift", func(s *Server) { gateLedger(s.threads).Releases++ }, "grants"},
		{"queue-dead-overflow", func(s *Server) {
			l := gateLedger(s.threads)
			l.Dead += s.QueueLen() + 1 // one more dead slot than the queue has
		}, "queueDead"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, srv := newServer(t, 2)
			var sess *Session
			srv.Acquire(func(s *Session) { sess = s })
			if sess == nil {
				t.Fatal("no grant")
			}
			tc.corrupt(srv)
			err := srv.CheckInvariant()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckerRecordsNegativeActiveOnRelease wires a checker and forces
// the release path to drive active negative; the inline check must record
// a pool-accounting violation with the request id.
func TestCheckerRecordsNegativeActiveOnRelease(t *testing.T) {
	t.Parallel()
	_, srv := newServer(t, 2)
	chk := invariant.New()
	srv.SetInvariantChecker(chk)
	var sess *Session
	srv.Acquire(func(s *Session) { sess = s })
	gateLedger(srv.threads).Held = 0 // corrupt: the ledger forgets the grant
	sess.Release()
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Rule != invariant.RulePoolAccounting {
		t.Fatalf("violations = %+v, want one pool-accounting record", vs)
	}
	if !strings.Contains(vs[0].Detail, "negative") {
		t.Fatalf("detail = %q", vs[0].Detail)
	}
}

// TestCheckerNilIsFreeOnHotPath pins that a detached checker changes
// nothing: same grants, same releases, clean self-check.
func TestCheckerNilIsFreeOnHotPath(t *testing.T) {
	t.Parallel()
	eng, srv := newServer(t, 1)
	srv.SetInvariantChecker(nil)
	done := 0
	for i := 0; i < 3; i++ {
		srv.Acquire(func(sess *Session) {
			sess.Exec(func() {
				sess.Release()
				done++
			})
		})
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if done != 3 {
		t.Fatalf("completed %d of 3", done)
	}
	if err := srv.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
}
