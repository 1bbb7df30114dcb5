package ntier

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dcm/internal/graph"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestFailServerUnknown(t *testing.T) {
	t.Parallel()
	_, app := newApp(t, fastConfig())
	if err := app.FailMember(TierApp, "ghost"); !errors.Is(err, graph.ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
	if err := app.FailMember("ghost", "x"); !errors.Is(err, graph.ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailServerFailsQueuedAndInFlight(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppThreads = 2
	eng, app := newApp(t, cfg)
	// Load well beyond the 2-thread pool so requests queue at app-1.
	results := make(map[bool]int)
	for i := 0; i < 20; i++ {
		app.Inject(func(_ time.Duration, ok bool) { results[ok]++ })
	}
	eng.Schedule(time.Millisecond, func() {
		if err := app.FailMember(TierApp, "app-1"); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if results[true]+results[false] != 20 {
		t.Fatalf("requests lost: %v", results)
	}
	if results[false] == 0 {
		t.Fatal("crash produced no failures")
	}
	if app.TotalErrors() != uint64(results[false]) {
		t.Fatalf("error accounting mismatch: %d vs %v", app.TotalErrors(), results)
	}
	if n := inFlight(app); n != 0 {
		t.Fatalf("in-flight leak: %d", n)
	}
}

func TestFailServerSurvivorsKeepServing(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.AppServers = 2
	eng, app := newApp(t, cfg)
	if err := app.FailMember(TierApp, "app-1"); err != nil {
		t.Fatal(err)
	}
	if app.MemberCount(TierApp) != 1 {
		t.Fatalf("server count = %d", app.MemberCount(TierApp))
	}
	for i := 0; i < 10; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.TotalCompletions() != 10 || app.TotalErrors() != 0 {
		t.Fatalf("survivor did not absorb traffic: done=%d errs=%d",
			app.TotalCompletions(), app.TotalErrors())
	}
}

func TestFailLastServerBlacksOutTier(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	if err := app.FailMember(TierDB, "db-1"); err != nil {
		t.Fatal(err)
	}
	app.Inject(nil)
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.TotalErrors() != 1 {
		t.Fatalf("request against dead tier: errs = %d", app.TotalErrors())
	}
	// A replacement restores service.
	if _, err := app.AddMember(TierDB, ""); err != nil {
		t.Fatal(err)
	}
	app.Inject(nil)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.TotalCompletions() != 1 {
		t.Fatal("replacement server not serving")
	}
}

func TestFailDBServerMidQuery(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.DBServers = 2
	eng, app := newApp(t, cfg)
	okCount, failCount := 0, 0
	for i := 0; i < 30; i++ {
		app.Inject(func(_ time.Duration, ok bool) {
			if ok {
				okCount++
			} else {
				failCount++
			}
		})
	}
	eng.Schedule(500*time.Microsecond, func() {
		if err := app.FailMember(TierDB, "db-1"); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if okCount+failCount != 30 {
		t.Fatalf("requests lost: ok=%d fail=%d", okCount, failCount)
	}
	if okCount == 0 {
		t.Fatal("no request survived on db-2")
	}
	if n := inFlight(app); n != 0 {
		t.Fatalf("in-flight leak: %d", n)
	}
}

// TestCrashUnderSaturationNoLeak floods the system, crashes a tier server
// mid-flood, and verifies conservation: every injected request completes
// or fails, connection pools and thread accounting return to idle.
func TestCrashUnderSaturationNoLeak(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig()
	cfg.AppServers = 2
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(9).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const total = 3000
	done := 0
	for i := 0; i < total; i++ {
		i := i
		eng.Schedule(time.Duration(i)*time.Millisecond, func() {
			app.Inject(func(time.Duration, bool) { done++ })
		})
	}
	eng.Schedule(time.Second, func() {
		if err := app.FailMember(TierApp, "app-2"); err != nil {
			t.Errorf("fail: %v", err)
		}
	})
	if err := eng.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if done != total {
		t.Fatalf("completion conservation broken: %d of %d", done, total)
	}
	if n := inFlight(app); n != 0 {
		t.Fatalf("in-flight leak: %d", n)
	}
	if app.TotalCompletions()+app.TotalErrors() != total {
		t.Fatalf("accounting: %d + %d != %d", app.TotalCompletions(), app.TotalErrors(), total)
	}
	// The surviving app server is fully idle again.
	for _, m := range app.Members(TierApp) {
		if m.Server().Active() != 0 || m.Server().QueueLen() != 0 {
			t.Fatalf("server %s not idle: active=%d queue=%d",
				m.Name(), m.Server().Active(), m.Server().QueueLen())
		}
		if m.Pool().InUse() != 0 || m.Pool().Waiting() != 0 {
			t.Fatalf("conn pool %s not idle", m.Name())
		}
	}
}

// TestConservationUnderChurnProperty drives a random schedule of topology
// churn — adds, drains, crashes, pool resizes — under continuous load and
// checks the system-wide conservation invariants at the end: every request
// either completed or failed, nothing is in flight, every pool is idle.
func TestConservationUnderChurnProperty(t *testing.T) {
	t.Parallel()
	prop := func(seed uint64, ops []uint8) bool {
		eng := sim.NewEngine()
		cfg := fastConfig()
		cfg.AppServers = 2
		cfg.DBServers = 2
		app, err := New(eng, rng.New(seed).Split("app"), cfg)
		if err != nil {
			return false
		}
		const total = 400
		done := 0
		for i := 0; i < total; i++ {
			i := i
			eng.Schedule(time.Duration(i)*2*time.Millisecond, func() {
				app.Inject(func(time.Duration, bool) { done++ })
			})
		}
		r := rng.New(seed).Split("ops")
		at := 5 * time.Millisecond
		for _, op := range ops {
			op := op
			at += time.Duration(op%17) * time.Millisecond
			eng.ScheduleAt(at, func() {
				tierName := TierApp
				if op%2 == 1 {
					tierName = TierDB
				}
				members := app.Members(tierName)
				switch op % 5 {
				case 0:
					_, _ = app.AddMember(tierName, "")
				case 1:
					if len(members) > 1 {
						victim := members[r.Intn(len(members))].Name()
						_ = app.FailMember(tierName, victim)
					}
				case 2:
					if len(members) > 1 {
						victim := members[len(members)-1].Name()
						_ = app.StartDrain(tierName, victim, func() {
							_ = app.RemoveMember(tierName, victim)
						})
					}
				case 3:
					_ = app.SetNodeThreads(TierApp, int(op%29)+1)
				case 4:
					_ = app.SetEdgePoolSize(TierApp, TierDB, int(op%13)+1)
				}
			})
		}
		if err := eng.Run(10 * time.Minute); err != nil {
			return false
		}
		if done != total {
			t.Logf("seed %d: done %d of %d", seed, done, total)
			return false
		}
		if n := inFlight(app); n != 0 {
			t.Logf("seed %d: in flight %d", seed, n)
			return false
		}
		if app.TotalCompletions()+app.TotalErrors() != total {
			return false
		}
		for _, tierName := range Tiers() {
			for _, m := range app.Members(tierName) {
				if m.Server().Active() != 0 || m.Server().QueueLen() != 0 {
					t.Logf("seed %d: %s busy", seed, m.Name())
					return false
				}
				if p := m.Pool(); p != nil && (p.InUse() != 0 || p.Waiting() != 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
