package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/metrics"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
)

// gateHarness drives one soft resource through its connpool.Gate: a
// server's thread pool or a connection pool. Records (a *Session or a
// *connpool.Conn) are passed as any; acquire's rec is nil on a refusal.
type gateHarness struct {
	acquire func(req uint64, deadline sim.Time, critical bool, fn func(rec any, d metrics.Disposition))
	release func(rec any)
	kill    func()
	waiting func() int
	ledger  *connpool.Ledger
	check   func() error
}

// gateKinds builds each resource from cfg, with tr attached: PoolSize
// units and a waiter cap of MaxQueue (0 = unbounded); the CoDel fields
// apply to the server only, a pool has no shedder. enter is the event the
// resource records when an acquisition is granted at once or queued.
var gateKinds = []struct {
	name  string
	enter trace.EventKind
	build func(t *testing.T, eng *sim.Engine, cfg Config, tr *trace.RequestTracer) gateHarness
}{
	{"server", trace.EventQueueEnter, func(t *testing.T, eng *sim.Engine, cfg Config, tr *trace.RequestTracer) gateHarness {
		cfg.Name, cfg.Model = "s1", linearParams
		srv, err := New(eng, rng.New(1).Split("srv"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.SetTracer(tr, "app")
		return gateHarness{
			acquire: func(req uint64, deadline sim.Time, critical bool, fn func(any, metrics.Disposition)) {
				srv.AcquireDeadlineCritical(req, deadline, critical, func(sess *Session, d metrics.Disposition) {
					if sess == nil {
						fn(nil, d)
						return
					}
					fn(sess, d)
				})
			},
			release: func(rec any) { rec.(*Session).Release() },
			kill:    srv.Kill,
			waiting: srv.QueueLen,
			ledger:  gateLedger(srv.threads),
			check:   srv.CheckInvariant,
		}
	}},
	{"pool", trace.EventPoolWait, func(t *testing.T, eng *sim.Engine, cfg Config, tr *trace.RequestTracer) gateHarness {
		p, err := connpool.New(eng, "p1", cfg.PoolSize)
		if err != nil {
			t.Fatal(err)
		}
		p.SetMaxWaiters(cfg.MaxQueue)
		p.SetTracer(tr, "app")
		return gateHarness{
			acquire: func(req uint64, deadline sim.Time, critical bool, fn func(any, metrics.Disposition)) {
				p.AcquireDeadlineCritical(req, deadline, critical, func(c *connpool.Conn, d metrics.Disposition) {
					if c == nil {
						fn(nil, d)
						return
					}
					fn(c, d)
				})
			},
			release: func(rec any) { rec.(*connpool.Conn).Release() },
			kill:    p.Kill,
			waiting: p.Waiting,
			ledger:  gateLedger(p),
			check:   p.CheckInvariant,
		}
	}},
}

// kinds returns the event kinds tr recorded for req, in order.
func kinds(t *testing.T, tr *trace.RequestTracer, req uint64) []trace.EventKind {
	var out []trace.EventKind
	for _, e := range tracedEvents(t, tr) {
		if e.Req == req {
			out = append(out, e.Kind)
		}
	}
	return out
}

// tracedEvents returns the events tr recorded, in recording order, read
// back from its JSONL export.
func tracedEvents(t *testing.T, tr *trace.RequestTracer) []trace.Event {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	for dec := json.NewDecoder(&buf); dec.More(); {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

// TestGateRejectionRecordsNoOpeningEvent pins the trace of a waiter-cap
// rejection on both resources: the refused acquisition records reject
// and nothing else, so no opening event is left unpaired in the
// tracer's breakdown. A granted and a queued acquisition still record
// their opening event.
func TestGateRejectionRecordsNoOpeningEvent(t *testing.T) {
	t.Parallel()
	for _, k := range gateKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			eng := sim.NewEngine()
			tr := trace.NewRequestTracer(0)
			g := k.build(t, eng, Config{PoolSize: 1, MaxQueue: 1}, tr)
			var refused []metrics.Disposition
			for req := uint64(1); req <= 3; req++ { // granted, queued, rejected
				g.acquire(req, 0, false, func(rec any, d metrics.Disposition) {
					if rec == nil {
						refused = append(refused, d)
					}
				})
			}
			if !slices.Equal(refused, []metrics.Disposition{metrics.DispositionRejected}) {
				t.Fatalf("refusals = %v, want one rejection", refused)
			}
			if got := kinds(t, tr, 3); !slices.Equal(got, []trace.EventKind{trace.EventReject}) {
				t.Errorf("rejected acquisition recorded %v, want only %s", got, trace.EventReject)
			}
			if got := kinds(t, tr, 2); !slices.Equal(got, []trace.EventKind{k.enter}) {
				t.Errorf("queued acquisition recorded %v, want %s", got, k.enter)
			}
			if got := kinds(t, tr, 1); len(got) != 2 || got[0] != k.enter {
				t.Errorf("granted acquisition recorded %v, want %s then its grant", got, k.enter)
			}
		})
	}
}

// TestGateCompactsDeadWaiters expires 100 queued waiters interleaved with
// 50 live ones on both resources. The gate drops dead slots lazily, all
// at once when at least 64 of them make up at least half the queue: here
// at the 75th expiry of 150 slots, leaving the last 25 expiries as dead
// slots. Throughout, Waiting counts only live waiters, the survivors are
// granted in FIFO order, and CheckInvariant stays clean.
func TestGateCompactsDeadWaiters(t *testing.T) {
	t.Parallel()
	for _, k := range gateKinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			eng := sim.NewEngine()
			g := k.build(t, eng, Config{PoolSize: 1}, nil)
			var hold any
			g.acquire(1000, 0, false, func(rec any, _ metrics.Disposition) { hold = rec })
			if hold == nil {
				t.Fatal("first acquisition not granted")
			}
			var live, granted []uint64
			expired := 0
			for i := uint64(0); i < 150; i++ {
				deadline := time.Second // two of every three waiters are doomed
				if i%3 == 2 {
					deadline = 0
					live = append(live, i)
				}
				g.acquire(i, deadline, false, func(rec any, d metrics.Disposition) {
					if rec == nil {
						if d != metrics.DispositionTimeout {
							t.Errorf("waiter %d refused with %v", i, d)
						}
						expired++
						return
					}
					granted = append(granted, i)
					g.release(rec)
				})
			}
			if g.waiting() != 150 {
				t.Fatalf("waiting = %d, want 150", g.waiting())
			}
			if err := eng.Run(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			if expired != 100 || g.waiting() != 50 {
				t.Fatalf("expired %d, waiting %d; want 100 and 50", expired, g.waiting())
			}
			if g.ledger.Dead != 25 {
				t.Fatalf("dead slots = %d, want 25 (compacted at the 75th expiry)", g.ledger.Dead)
			}
			if err := g.check(); err != nil {
				t.Fatalf("after expiries: %v", err)
			}
			g.release(hold)
			if !slices.Equal(granted, live) {
				t.Fatalf("survivors granted in order %v, want %v", granted, live)
			}
			if g.waiting() != 0 || g.ledger.Dead != 0 {
				t.Fatalf("after drain: waiting %d, dead slots %d", g.waiting(), g.ledger.Dead)
			}
			if err := g.check(); err != nil {
				t.Fatalf("after drain: %v", err)
			}
		})
	}
}
