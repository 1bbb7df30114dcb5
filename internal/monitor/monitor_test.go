package monitor

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/bus"
	"dcm/internal/graph"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *bus.Bus, *graph.App, *Fleet) {
	t.Helper()
	eng := sim.NewEngine()
	b := bus.New()
	cfg := ntier.DefaultConfig()
	cfg.AppThreads = 10
	cfg.DBConnsPerApp = 10
	app, err := ntier.New(eng, rng.New(1).Split("app"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := NewFleet(eng, b, app, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return eng, b, app, fleet
}

func TestNewFleetValidation(t *testing.T) {
	t.Parallel()
	eng, b, app, _ := setup(t)
	if _, err := NewFleet(nil, b, app, 0); !errors.Is(err, ErrBadFleet) {
		t.Fatalf("nil engine: %v", err)
	}
	if _, err := NewFleet(eng, nil, app, 0); !errors.Is(err, ErrBadFleet) {
		t.Fatalf("nil bus: %v", err)
	}
	f, err := NewFleet(eng, b, app, -time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Interval() != time.Second {
		t.Fatalf("interval default = %v", f.Interval())
	}
}

func TestFleetPublishesPerServerSamples(t *testing.T) {
	t.Parallel()
	eng, b, app, fleet := setup(t)
	srv := b.NewConsumer(TopicServerMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	if fleet.AgentCount() != 3 {
		t.Fatalf("agents = %d, want 3 (one per server)", fleet.AgentCount())
	}
	// Generate load so samples carry data.
	var cycle func()
	cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
	for i := 0; i < 5; i++ {
		cycle()
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	msgs := srv.Poll(0)
	if len(msgs) != 30 {
		t.Fatalf("server samples = %d, want 3 servers x 10 seconds", len(msgs))
	}
	byTier := map[string]int{}
	for _, m := range msgs {
		s, ok := m.Value.(ServerSample)
		if !ok {
			t.Fatalf("payload type %T", m.Value)
		}
		byTier[s.Tier]++
		if s.VM == "" || s.At == 0 {
			t.Fatalf("sample missing metadata: %+v", s)
		}
	}
	if byTier["web"] != 10 || byTier["app"] != 10 || byTier["db"] != 10 {
		t.Fatalf("samples by tier = %v", byTier)
	}
	// The loaded app server must show nonzero throughput and utilization.
	var sawBusyApp bool
	for _, m := range msgs {
		if s, ok := m.Value.(ServerSample); ok {
			if s.Tier == ntier.TierApp && s.Throughput > 0 && s.CPUUtil > 0 {
				sawBusyApp = true
			}
		}
	}
	if !sawBusyApp {
		t.Fatal("no busy app-tier sample observed under load")
	}
}

// TestAgentSampleMatchesServer checks what an agent publishes against
// the server it samples: each ServerSample's Throughput, ActiveThreads
// and CPUUtil must equal the interval's burst completions per second,
// the thread gate's MeanHeld and the CPU Utilization that a twin run at
// the same seed reads with server.TakeSample on the same cadence.
func TestAgentSampleMatchesServer(t *testing.T) {
	t.Parallel()
	load := func(app *graph.App) {
		var cycle func()
		cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
		for i := 0; i < 40; i++ {
			cycle()
		}
	}

	eng, b, app, fleet := setup(t)
	srv := b.NewConsumer(TopicServerMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	load(app)
	if err := eng.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	msgs := srv.Poll(0)

	// The twin samples every server in the order Start attaches agents.
	twinEng, _, twinApp, _ := setup(t)
	var want []ServerSample
	for _, tierName := range twinApp.NodeNames() {
		for _, m := range twinApp.Members(tierName) {
			srv, vm := m.Server(), m.Name()
			twinEng.Ticker(time.Second, func() {
				s := srv.TakeSample()
				want = append(want, ServerSample{At: twinEng.Now(), VM: vm, Tier: tierName,
					CPUUtil: s.Utilization, Throughput: float64(s.Completions), ActiveThreads: s.MeanHeld})
			})
		}
	}
	load(twinApp)
	if err := twinEng.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}

	if len(msgs) != len(want) || len(want) != 24 {
		t.Fatalf("published %d samples, twin took %d, want 3 servers x 8 seconds", len(msgs), len(want))
	}
	var busy int
	for i, m := range msgs {
		got, ok := m.Value.(ServerSample)
		if !ok {
			t.Fatalf("payload type %T", m.Value)
		}
		if got != want[i] {
			t.Fatalf("sample %d = %+v, twin read %+v", i, got, want[i])
		}
		if got.Throughput > 0 && got.ActiveThreads > 0 && got.CPUUtil > 0 {
			busy++
		}
	}
	if busy == 0 {
		t.Fatal("no sample saw load; the comparison is vacuous")
	}
}

func TestFleetPublishesSystemSamples(t *testing.T) {
	t.Parallel()
	eng, b, app, fleet := setup(t)
	sys := b.NewConsumer(TopicSystemMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	var cycle func()
	cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
	cycle()
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	msgs := sys.Poll(0)
	if len(msgs) != 5 {
		t.Fatalf("system samples = %d", len(msgs))
	}
	s, ok := msgs[2].Value.(SystemSample)
	if !ok {
		t.Fatalf("payload type %T", msgs[2].Value)
	}
	if s.Throughput <= 0 || s.MeanRTSeconds <= 0 {
		t.Fatalf("system sample = %+v", s)
	}
}

func TestStartIdempotent(t *testing.T) {
	t.Parallel()
	eng, b, _, fleet := setup(t)
	srv := b.NewConsumer(TopicServerMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if msgs := srv.Poll(0); len(msgs) != 6 {
		t.Fatalf("double start duplicated agents: %d samples", len(msgs))
	}
}

func TestAttachDetach(t *testing.T) {
	t.Parallel()
	eng, b, app, fleet := setup(t)
	srv := b.NewConsumer(TopicServerMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AddMember(ntier.TierApp, "app-2"); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Attach(ntier.TierApp, "app-2"); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Attach(ntier.TierApp, "app-2"); !errors.Is(err, ErrBadFleet) {
		t.Fatalf("double attach: %v", err)
	}
	if err := fleet.Attach(ntier.TierApp, "ghost"); err == nil {
		t.Fatal("attached to unknown server")
	}
	if fleet.AgentCount() != 4 {
		t.Fatalf("agents = %d", fleet.AgentCount())
	}
	if err := eng.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	fleet.Detach("app-2")
	fleet.Detach("app-2") // no-op
	if fleet.AgentCount() != 3 {
		t.Fatalf("agents after detach = %d", fleet.AgentCount())
	}
	srv.Poll(0) // skip what was published before the detach
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, m := range srv.Poll(0) {
		if m.Key == "app-2" {
			t.Fatal("detached agent still publishing")
		}
	}
}

func TestStopHaltsPublishing(t *testing.T) {
	t.Parallel()
	eng, b, _, fleet := setup(t)
	srv, sys := b.NewConsumer(TopicServerMetrics), b.NewConsumer(TopicSystemMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fleet.Stop()
	if fleet.AgentCount() != 0 {
		t.Fatalf("agents after stop = %d", fleet.AgentCount())
	}
	if len(srv.Poll(0)) == 0 || len(sys.Poll(0)) == 0 {
		t.Fatal("fleet published nothing before Stop")
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n, m := len(srv.Poll(0)), len(sys.Poll(0)); n != 0 || m != 0 {
		t.Fatalf("fleet published %d server and %d system samples after Stop", n, m)
	}
}

func TestBlackoutSuppressesPublishing(t *testing.T) {
	t.Parallel()
	eng, b, _, fleet := setup(t)
	srv, sys := b.NewConsumer(TopicServerMetrics), b.NewConsumer(TopicSystemMetrics)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	// Blackout from 3s to 6s, then run to 10s.
	eng.Schedule(3*time.Second, func() { fleet.SetBlackout(true) })
	eng.Schedule(6*time.Second, func() { fleet.SetBlackout(false) })
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fleet.Stop()

	seen := map[int]bool{}
	for _, m := range sys.Poll(0) {
		s, ok := m.Value.(SystemSample)
		if !ok {
			continue
		}
		seen[int(s.At.Seconds())] = true
	}
	// The blackout/repair events were scheduled before the ticker's
	// same-instant firings, so FIFO order makes them win the tie: samples
	// land at 1..2, go dark at 3..5, resume at 6..10.
	for _, sec := range []int{1, 2, 6, 7, 8, 9, 10} {
		if !seen[sec] {
			t.Errorf("missing system sample at %ds outside the blackout", sec)
		}
	}
	for _, sec := range []int{3, 4, 5} {
		if seen[sec] {
			t.Errorf("system sample published at %ds during the blackout", sec)
		}
	}

	for _, m := range srv.Poll(0) {
		s, ok := m.Value.(ServerSample)
		if !ok {
			continue
		}
		if sec := int(s.At.Seconds()); sec >= 3 && sec <= 5 {
			t.Errorf("server sample for %s published at %ds during the blackout", s.VM, sec)
		}
	}
}
