package connpool

import (
	"strings"
	"testing"

	"dcm/internal/invariant"
)

// TestCheckInvariantLedgerAndCap exercises the CheckInvariant clauses
// added with the grant/release ledger and the waiter cap: each corruption
// must be named, and a clean pool under load must still verify.
func TestCheckInvariantLedgerAndCap(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		corrupt func(p *Pool)
		want    string
	}{
		{"release-ledger-drift", func(p *Pool) { p.l.Releases++ }, "grants"},
		{"grant-ledger-drift", func(p *Pool) { p.l.Grants.Inc(1) }, "grants"},
		{"waiter-cap-overflow", func(p *Pool) {
			// Acquire rejects new waiters beyond the cap, so the only way
			// Waiting() > maxWaiters is the cap shrinking under live
			// waiters — which SetMaxWaiters must never allow silently.
			p.maxWaiters = 1
		}, "exceed cap"},
		{"dead-waiter-overflow", func(p *Pool) { p.l.Dead = len(p.queue) + 1 }, "dead-waiter"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, p := newPool(t, 2)
			// Saturate the pool and queue two waiters so every clause has
			// live state to disagree with.
			for i := 0; i < 2; i++ {
				p.Acquire(func(c *Conn) {})
			}
			for i := 0; i < 2; i++ {
				p.Acquire(func(c *Conn) {
					if c != nil {
						t.Error("waiter granted on a saturated pool")
					}
				})
			}
			if err := p.CheckInvariant(); err != nil {
				t.Fatalf("clean pool: %v", err)
			}
			tc.corrupt(p)
			err := p.CheckInvariant()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckerRecordsNegativeInUseOnRelease wires a checker and corrupts
// the in-use count before a release; the inline check on Conn.Release
// must record a pool-accounting violation.
func TestCheckerRecordsNegativeInUseOnRelease(t *testing.T) {
	t.Parallel()
	_, p := newPool(t, 2)
	chk := invariant.New()
	p.SetInvariantChecker(chk)
	var conn *Conn
	p.Acquire(func(c *Conn) { conn = c })
	if conn == nil {
		t.Fatal("no grant")
	}
	p.l.Held = 0 // corrupt: the ledger forgets the grant
	conn.Release()
	vs := chk.Violations()
	if len(vs) != 1 || vs[0].Rule != invariant.RulePoolAccounting {
		t.Fatalf("violations = %+v, want one pool-accounting record", vs)
	}
	if !strings.Contains(vs[0].Detail, "negative") {
		t.Fatalf("detail = %q", vs[0].Detail)
	}
}

// TestCheckerSilentOnCleanLifecycle pins zero false positives through a
// saturate/queue/release cycle with the checker attached.
func TestCheckerSilentOnCleanLifecycle(t *testing.T) {
	t.Parallel()
	eng, p := newPool(t, 2)
	chk := invariant.New()
	p.SetInvariantChecker(chk)
	var held []*Conn
	granted := 0
	for i := 0; i < 5; i++ {
		p.Acquire(func(c *Conn) {
			if c != nil {
				granted++
				held = append(held, c)
			}
		})
	}
	for len(held) > 0 {
		c := held[0]
		held = held[1:]
		c.Release()
	}
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if granted != 5 {
		t.Fatalf("granted %d of 5", granted)
	}
	if err := p.CheckInvariant(); err != nil {
		t.Fatal(err)
	}
	if chk.Total() != 0 {
		t.Fatalf("clean lifecycle recorded %d violation(s):\n%s",
			chk.Total(), invariant.Render(chk.Violations()))
	}
}
