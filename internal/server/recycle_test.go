package server

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/metrics"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// hold makes a critical acquisition without a deadline and returns the
// granted record, or fails the test if the acquisition queues.
func hold(t *testing.T, g gateHarness) any {
	t.Helper()
	var held any
	g.acquire(0, 0, true, func(rec any, _ metrics.Disposition) { held = rec })
	if held == nil {
		t.Fatal("acquisition on an idle gate not granted at once")
	}
	return held
}

// acquireAll queues n acquisitions without a deadline and releases each
// grant in turn; got sees every granted record before its release.
func acquireAll(g gateHarness, n int, got func(rec any)) {
	var granted []any
	for i := 0; i < n; i++ {
		g.acquire(0, 0, false, func(rec any, _ metrics.Disposition) {
			if rec != nil {
				got(rec)
				granted = append(granted, rec)
			}
		})
	}
	for len(granted) > 0 {
		rec := granted[0]
		granted = granted[1:]
		g.release(rec)
	}
}

func runTo(t *testing.T, eng *sim.Engine, until time.Duration) {
	t.Helper()
	if err := eng.Run(until); err != nil {
		t.Fatal(err)
	}
}

// dirtyFields names the fields of rec's gate header that are not zero,
// skipping keep.
func dirtyFields(rec any, keep ...string) []string {
	w := reflect.ValueOf(rec).Elem().FieldByName("w")
	var dirty []string
	for i := 0; i < w.NumField(); i++ {
		if name := w.Type().Field(i).Name; !slices.Contains(keep, name) && !w.Field(i).IsZero() {
			dirty = append(dirty, name)
		}
	}
	return dirty
}

// TestRecycledRecordsAreClean sends a record out of a server's thread
// pool and out of a connection pool, each of size 1, by every exit a
// record can take, then checks the free list. Each gate first builds
// recycleWarm records; the exit scenario reuses them and leaves every unit
// released. Afterwards every record must be back on the free list, reset
// but for its gate, bound timer and generation, and still marked
// released. A fresh round of acquisitions must then be served from those
// records alone, each one clean when granted: no deadline, timer,
// callback, failure, criticality or owner flags (a session's executing and
// timedOut), and Released() false. A killed gate grants nothing, so there
// the fresh acquisition must be refused instead.
func TestRecycledRecordsAreClean(t *testing.T) {
	t.Parallel()
	const recycleWarm = 80
	second := sim.Time(time.Second)
	exits := []struct {
		name       string
		serverOnly bool
		codel      bool
		killed     bool
		run        func(t *testing.T, eng *sim.Engine, g gateHarness)
	}{
		{name: "queued expiry", run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			h := hold(t, g)
			var disp metrics.Disposition
			g.acquire(0, second, true, func(_ any, d metrics.Disposition) { disp = d })
			runTo(t, eng, 2*time.Second)
			if disp != metrics.DispositionTimeout {
				t.Fatalf("queued waiter ended with %v, want timeout", disp)
			}
			g.release(h) // pops the dead slot
		}},
		{name: "admit-time timeout", run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			h := hold(t, g)
			releasing := false
			// Scheduled before the waiter's deadline timer, so the release
			// runs first at the same timestamp and admit meets the deadline.
			eng.Schedule(time.Second, func() {
				releasing = true
				g.release(h)
				releasing = false
			})
			var disp metrics.Disposition
			g.acquire(0, second, true, func(_ any, d metrics.Disposition) {
				if !releasing {
					t.Error("waiter failed outside admit")
				}
				disp = d
			})
			runTo(t, eng, 2*time.Second)
			if disp != metrics.DispositionTimeout {
				t.Fatalf("waiter ended with %v, want timeout", disp)
			}
		}},
		{name: "CoDel shed", serverOnly: true, codel: true, run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			shed := 0
			for i := 0; i < recycleWarm-1; i++ {
				g.acquire(0, 0, false, func(rec any, d metrics.Disposition) {
					if rec == nil {
						shed++
						return
					}
					eng.Schedule(10*time.Millisecond, func() { g.release(rec) })
				})
			}
			runTo(t, eng, time.Hour)
			if shed == 0 {
				t.Fatal("standing queue never shed")
			}
		}},
		{name: "Kill", killed: true, run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			h := hold(t, g)
			var disps []metrics.Disposition
			for _, deadline := range []sim.Time{second, 0} {
				g.acquire(0, deadline, true, func(_ any, d metrics.Disposition) { disps = append(disps, d) })
			}
			g.kill()
			if !slices.Equal(disps, []metrics.Disposition{metrics.DispositionError, metrics.DispositionError}) {
				t.Fatalf("queued waiters ended with %v, want two errors", disps)
			}
			g.release(h)
			// The killed waiter's deadline timer was canceled: it must not
			// fire on its recycled record.
			runTo(t, eng, 2*time.Second)
		}},
		{name: "compaction", run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			h := hold(t, g)
			for i := 0; i < 70; i++ { // the 64th expiry compacts the queue
				g.acquire(0, second, true, func(any, metrics.Disposition) {})
			}
			runTo(t, eng, 2*time.Second)
			g.release(h)
		}},
		{name: "Release after a preempted burst", serverOnly: true, run: func(t *testing.T, eng *sim.Engine, g gateHarness) {
			var sess *Session
			g.acquire(0, sim.Time(5*time.Millisecond), true, func(rec any, _ metrics.Disposition) { sess = rec.(*Session) })
			sess.Exec(func() {
				if !sess.TimedOut() {
					t.Error("10 ms burst not preempted at the 5 ms deadline")
				}
				sess.Release()
			})
			runTo(t, eng, time.Second)
		}},
	}
	for _, k := range gateKinds {
		for _, ex := range exits {
			if ex.serverOnly && k.name != "server" {
				continue
			}
			t.Run(k.name+"/"+ex.name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{PoolSize: 1}
				if ex.codel {
					cfg.CoDelTarget, cfg.CoDelInterval = 20*time.Millisecond, 40*time.Millisecond
				}
				eng := sim.NewEngine()
				g := k.build(t, eng, cfg, nil)
				known := map[any]bool{}
				acquireAll(g, recycleWarm, func(rec any) { known[rec] = true })
				if len(known) != recycleWarm {
					t.Fatalf("warm-up built %d records, want %d", len(known), recycleWarm)
				}

				ex.run(t, eng, g)

				if err := g.check(); err != nil {
					t.Fatal(err)
				}
				for rec := range known {
					if dirty := dirtyFields(rec, "gate", "gen", "expire", "released"); len(dirty) > 0 {
						t.Fatalf("free-listed record keeps %v", dirty)
					}
					if !reflect.ValueOf(rec).Elem().FieldByName("w").FieldByName("released").Bool() {
						t.Fatal("free-listed record not marked released")
					}
				}
				if ex.killed {
					var disp metrics.Disposition
					g.acquire(0, 0, false, func(rec any, d metrics.Disposition) {
						if rec != nil {
							t.Error("killed gate granted a record")
						}
						disp = d
					})
					if disp != metrics.DispositionError {
						t.Fatalf("acquisition on a killed gate ended with %v, want error", disp)
					}
					return
				}
				fresh := 0
				acquireAll(g, recycleWarm, func(rec any) {
					fresh++
					if !known[rec] {
						t.Error("fresh acquisition built a new record instead of reusing one")
					}
					if dirty := dirtyFields(rec, "gate", "gen", "expire", "enqueueAt"); len(dirty) > 0 {
						t.Errorf("granted recycled record keeps %v", dirty)
					}
				})
				if fresh != recycleWarm {
					t.Fatalf("%d of %d fresh acquisitions granted", fresh, recycleWarm)
				}
			})
		}
	}
}

// TestWarmCycleAllocatesNothing pins the recycling payoff: once the free
// list holds a record, an acquire→release cycle through a server's thread
// pool or a connection pool allocates nothing, granted at once or queued
// behind the held unit.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine()
	srv, err := New(eng, rng.New(1).Split("srv"), Config{Name: "s1", Model: linearParams, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := connpool.New(eng, "p1", 1)
	if err != nil {
		t.Fatal(err)
	}
	var heldSess *Session
	var heldConn *connpool.Conn
	releaseSess := func(sess *Session, _ metrics.Disposition) { sess.Release() }
	releaseConn := func(c *connpool.Conn, _ metrics.Disposition) { c.Release() }
	holdSess := func(sess *Session, _ metrics.Disposition) { heldSess = sess }
	holdConn := func(c *connpool.Conn, _ metrics.Disposition) { heldConn = c }
	cycles := []struct {
		name  string
		setup func() // holds the unit a queued cycle waits behind
		cycle func()
	}{
		{"server", func() {}, func() { srv.AcquireDeadlineCritical(0, 0, false, releaseSess) }},
		{"pool", func() {}, func() { p.AcquireDeadline(0, 0, releaseConn) }},
		{"server queued", func() { srv.AcquireDeadlineCritical(0, 0, false, holdSess) }, func() {
			prev := heldSess
			srv.AcquireDeadlineCritical(0, 0, false, holdSess)
			prev.Release()
		}},
		{"pool queued", func() { p.AcquireDeadline(0, 0, holdConn) }, func() {
			prev := heldConn
			p.AcquireDeadline(0, 0, holdConn)
			prev.Release()
		}},
	}
	for _, c := range cycles {
		c.setup()
		c.cycle() // warm the free list and the queue's array
		if allocs := testing.AllocsPerRun(100, c.cycle); allocs != 0 {
			t.Errorf("%s: %.1f allocs per warm cycle, want 0", c.name, allocs)
		}
	}
}
