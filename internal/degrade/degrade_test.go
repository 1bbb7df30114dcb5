package degrade

import (
	"errors"
	"testing"
	"time"

	"dcm/internal/policy"
	"dcm/internal/sim"
)

// harness drives a supervisor from mutable fake counters: the engine
// ticks the supervisor while a second ticker replays a per-second script
// of counter increments.
type harness struct {
	eng *sim.Engine
	sup *Supervisor

	injected, good, completed, retries, sheds uint64
	qSum                                      float64
	qCount                                    uint64

	shedCalls, admCalls, retryCalls []float64
	notes                           []string
}

func newHarness(t *testing.T, cfg policy.DegradeRules) *harness {
	t.Helper()
	h := &harness{eng: sim.NewEngine()}
	probes := Probes{
		Injected:   func() uint64 { return h.injected },
		Good:       func() uint64 { return h.good },
		Completed:  func() uint64 { return h.completed },
		Retries:    func() uint64 { return h.retries },
		Sheds:      func() uint64 { return h.sheds },
		QueueDepth: func() (float64, uint64) { return h.qSum, h.qCount },
	}
	actions := Actions{
		Shed:       func(r float64) { h.shedCalls = append(h.shedCalls, r) },
		Admission:  func(s float64) { h.admCalls = append(h.admCalls, s) },
		RetryScale: func(s float64) { h.retryCalls = append(h.retryCalls, s) },
		Note: func(_ time.Duration, entered bool, reason string) {
			if entered {
				h.notes = append(h.notes, "enter:"+reason)
			} else {
				h.notes = append(h.notes, "exit:"+reason)
			}
		},
	}
	sup, err := New(h.eng, cfg, probes, actions)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.sup = sup
	return h
}

// run starts the supervisor and replays script (one call per period,
// scheduled just before each detector tick) for len(script) periods.
func (h *harness) run(script []func(*harness)) {
	period := h.sup.period
	for i, fn := range script {
		fn := fn
		at := time.Duration(i+1)*period - time.Millisecond
		h.eng.Schedule(at, func() { fn(h) })
	}
	h.sup.CaptureTimeline(time.Duration(len(script)) * period)
	h.sup.Start()
	h.eng.Run(time.Duration(len(script)) * period)
	h.sup.Stop()
}

// healthy advances counters in a shape no detector flags: plenty of
// goodput, no retries, flat queue.
func healthy(h *harness) {
	h.injected += 100
	h.good += 95
	h.completed += 100
	h.qSum += 100 * 5
	h.qCount += 100
}

// collapsed offers load with almost no goodput.
func collapsed(h *harness) {
	h.injected += 100
	h.good += 10
	h.completed += 20
	h.qSum += 100 * 5
	h.qCount += 100
}

func baseRules() policy.DegradeRules {
	return policy.DegradeRules{
		PeriodSeconds:       1,
		CollapseRatio:       0.5,
		MinOfferedPerSecond: 20,
		RetryAmplification:  1.5,
		QueueGradient:       2,
		EnterTicks:          2,
		ExitTicks:           2,
		MinDwellSeconds:     0,
		ShedRatio:           0.4,
		RetryBudgetScale:    0.25,
		AdmissionScale:      0.5,
	}
}

func script(n int, fn func(*harness)) []func(*harness) {
	out := make([]func(*harness), n)
	for i := range out {
		out[i] = fn
	}
	return out
}

func TestCollapseDetectorEntersAndExits(t *testing.T) {
	cfg := baseRules()
	h := newHarness(t, cfg)
	sc := append(script(3, healthy), script(4, collapsed)...)
	sc = append(sc, script(5, healthy)...)
	h.run(sc)

	rep := h.sup.Report()
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %+v, want exactly 1", rep.Episodes)
	}
	ep := rep.Episodes[0]
	if ep.Reason != "goodput-collapse" {
		t.Errorf("reason = %q, want goodput-collapse", ep.Reason)
	}
	// Unhealthy from tick 4 (first collapsed tick), enter on the 2nd
	// consecutive at t=5s; healthy from tick 8, exit on the 2nd at t=9s.
	if ep.EnterAt != 5*time.Second || ep.ExitAt != 9*time.Second {
		t.Errorf("episode = enter %v exit %v, want 5s/9s", ep.EnterAt, ep.ExitAt)
	}
	wantShed := []float64{0.4, 0}
	if len(h.shedCalls) != 2 || h.shedCalls[0] != wantShed[0] || h.shedCalls[1] != wantShed[1] {
		t.Errorf("shed calls = %v, want %v", h.shedCalls, wantShed)
	}
	wantAdm := []float64{0.5, 1}
	if len(h.admCalls) != 2 || h.admCalls[0] != wantAdm[0] || h.admCalls[1] != wantAdm[1] {
		t.Errorf("admission calls = %v, want %v", h.admCalls, wantAdm)
	}
	wantRetry := []float64{0.25, 1}
	if len(h.retryCalls) != 2 || h.retryCalls[0] != wantRetry[0] || h.retryCalls[1] != wantRetry[1] {
		t.Errorf("retry-scale calls = %v, want %v", h.retryCalls, wantRetry)
	}
	if len(h.notes) != 2 || h.notes[0] != "enter:goodput-collapse" || h.notes[1] != "exit:recovered" {
		t.Errorf("notes = %v", h.notes)
	}
	if rep.Ticks != 12 || len(rep.Timeline) != 12 {
		t.Errorf("ticks = %d timeline = %d, want 12/12", rep.Ticks, len(rep.Timeline))
	}
}

func TestRetryAmplificationDetector(t *testing.T) {
	cfg := baseRules()
	cfg.CollapseRatio = 0 // isolate the retry detector
	cfg.QueueGradient = 0
	h := newHarness(t, cfg)
	stormy := func(h *harness) {
		h.injected += 100
		h.good += 90
		h.completed += 100
		h.retries += 200 // 2 retries per completion > 1.5
	}
	h.run(append(script(2, healthy), script(3, stormy)...))
	rep := h.sup.Report()
	if len(rep.Episodes) != 1 || rep.Episodes[0].Reason != "retry-amplification" {
		t.Fatalf("episodes = %+v, want one retry-amplification entry", rep.Episodes)
	}
}

func TestQueueGradientDetector(t *testing.T) {
	cfg := baseRules()
	cfg.CollapseRatio = 0
	cfg.RetryAmplification = 0
	cfg.EnterTicks = 1
	h := newHarness(t, cfg)
	depth := 5.0
	ramp := func(h *harness) {
		h.injected += 100
		h.good += 95
		h.completed += 100
		depth *= 2 // queue doubling every tick beats the 2x window gradient
		h.qSum += 100 * depth
		h.qCount += 100
	}
	h.run(append(script(4, healthy), script(4, ramp)...))
	rep := h.sup.Report()
	if len(rep.Episodes) == 0 || rep.Episodes[0].Reason != "queue-gradient" {
		t.Fatalf("episodes = %+v, want a queue-gradient entry", rep.Episodes)
	}
}

// TestWarmupSuppressesStartupTransient pins the monitor-side fix for the
// closed-loop ramp: the same collapsed ticks that enter brownout after
// warmup must not enter during it.
func TestWarmupSuppressesStartupTransient(t *testing.T) {
	cfg := baseRules()
	cfg.WarmupSeconds = 5
	h := newHarness(t, cfg)
	h.run(append(script(4, collapsed), script(4, healthy)...))
	rep := h.sup.Report()
	if len(rep.Episodes) != 0 {
		t.Fatalf("episodes = %+v, want none (collapse entirely inside warmup)", rep.Episodes)
	}
	if rep.UnhealthyTicks != 0 {
		t.Errorf("unhealthy ticks = %d, want 0 during warmup", rep.UnhealthyTicks)
	}
	h2 := newHarness(t, cfg)
	h2.run(append(script(6, healthy), script(4, collapsed)...))
	if rep2 := h2.sup.Report(); len(rep2.Episodes) != 1 {
		t.Fatalf("episodes after warmup = %+v, want 1", rep2.Episodes)
	}
}

// TestShedCorrectedOfferedLoad pins the anti-latch rule: traffic the
// brownout sheds itself must not count as collapse evidence, otherwise
// the controller's own action keeps it locked in brownout forever.
func TestShedCorrectedOfferedLoad(t *testing.T) {
	cfg := baseRules()
	cfg.RetryAmplification = 0
	cfg.QueueGradient = 0
	cfg.ExitTicks = 1
	h := newHarness(t, cfg)
	// While browned out, half the offered load is shed by the controller
	// itself and the admitted half completes well: healthy once corrected.
	shedding := func(h *harness) {
		h.injected += 100
		h.sheds += 50
		h.good += 45
		h.completed += 50
	}
	sc := append(script(2, healthy), script(3, collapsed)...)
	sc = append(sc, script(4, shedding)...)
	h.run(sc)
	rep := h.sup.Report()
	if len(rep.Episodes) != 1 {
		t.Fatalf("episodes = %+v, want 1", rep.Episodes)
	}
	if rep.Episodes[0].ExitAt == 0 {
		t.Fatalf("episode never exited: shed traffic still counted as collapse evidence")
	}
}

// TestHysteresisNeverOscillatesFasterThanDwell is the adversarial
// property test: across a family of square-wave health signals (every
// combination of unhealthy/healthy half-period from 1..6 ticks, including
// the worst-case alternating wave), every exit must come at least
// MinDwell after its entry, and consecutive entries at least MinDwell
// plus EnterTicks periods apart — the healthy run can satisfy ExitTicks
// while the dwell clock is still running, but re-entering always takes
// EnterTicks fresh unhealthy ticks after the exit.
func TestHysteresisNeverOscillatesFasterThanDwell(t *testing.T) {
	const period = time.Second
	for enter := 1; enter <= 3; enter++ {
		for exit := 1; exit <= 3; exit++ {
			for dwell := 0; dwell <= 12; dwell += 4 {
				for up := 1; up <= 6; up++ {
					for down := 1; down <= 6; down++ {
						h := hysteresis{
							EnterTicks: enter,
							ExitTicks:  exit,
							MinDwell:   time.Duration(dwell) * period,
						}
						var enters, exits []time.Duration
						for tick := 1; tick <= 400; tick++ {
							now := time.Duration(tick) * period
							phase := (tick - 1) % (up + down)
							unhealthy := phase < up
							switch h.step(now, unhealthy) {
							case transitionEnter:
								enters = append(enters, now)
							case transitionExit:
								exits = append(exits, now)
							}
						}
						if len(exits) > len(enters) {
							t.Fatalf("enter=%d exit=%d dwell=%d wave=%d/%d: more exits than enters",
								enter, exit, dwell, up, down)
						}
						for i, ex := range exits {
							if got := ex - enters[i]; got < h.MinDwell {
								t.Fatalf("enter=%d exit=%d dwell=%d wave=%d/%d: episode %d dwelled %v < %v",
									enter, exit, dwell, up, down, i, got, h.MinDwell)
							}
						}
						minGap := h.MinDwell + time.Duration(enter)*period
						for i := 1; i < len(enters); i++ {
							if got := enters[i] - enters[i-1]; got < minGap {
								t.Fatalf("enter=%d exit=%d dwell=%d wave=%d/%d: re-entered after %v < %v",
									enter, exit, dwell, up, down, got, minGap)
							}
						}
					}
				}
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*policy.DegradeRules)
	}{
		{"no detector", func(c *policy.DegradeRules) {
			c.CollapseRatio, c.RetryAmplification, c.QueueGradient = 0, 0, 0
		}},
		{"zero period", func(c *policy.DegradeRules) { c.PeriodSeconds = 0 }},
		{"sub-nanosecond period", func(c *policy.DegradeRules) { c.PeriodSeconds = 1e-12 }},
		{"negative warmup", func(c *policy.DegradeRules) { c.WarmupSeconds = -1 }},
		{"zero enter ticks", func(c *policy.DegradeRules) { c.EnterTicks = 0 }},
		{"zero exit ticks", func(c *policy.DegradeRules) { c.ExitTicks = 0 }},
		{"negative dwell", func(c *policy.DegradeRules) { c.MinDwellSeconds = -1 }},
		{"shed ratio above 1", func(c *policy.DegradeRules) { c.ShedRatio = 1.5 }},
		{"retry scale above 1", func(c *policy.DegradeRules) { c.RetryBudgetScale = 2 }},
		{"admission scale negative", func(c *policy.DegradeRules) { c.AdmissionScale = -0.1 }},
	}
	for _, tc := range cases {
		cfg := baseRules()
		tc.mutate(&cfg)
		if _, err := New(sim.NewEngine(), cfg, Probes{}, Actions{}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
	if _, err := New(nil, baseRules(), Probes{}, Actions{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil engine: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(sim.NewEngine(), policy.Default().Degrade, Probes{}, Actions{}); err != nil {
		t.Errorf("default rules: %v", err)
	}
}

// BenchmarkDegradeTick pins the steady-state detector cost: with the
// timeline disabled (the production default) a tick must not allocate.
func BenchmarkDegradeTick(b *testing.B) {
	eng := sim.NewEngine()
	var injected, good, completed, retries, sheds uint64
	var qSum float64
	var qCount uint64
	probes := Probes{
		Injected:   func() uint64 { return injected },
		Good:       func() uint64 { return good },
		Completed:  func() uint64 { return completed },
		Retries:    func() uint64 { return retries },
		Sheds:      func() uint64 { return sheds },
		QueueDepth: func() (float64, uint64) { return qSum, qCount },
	}
	cfg := baseRules()
	sup, err := New(eng, cfg, probes, Actions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		injected += 100
		good += 95
		completed += 100
		retries += 5
		qSum += 500
		qCount += 100
		sup.tick()
	}
	if sup.Report().Ticks != uint64(b.N) {
		b.Fatal("tick count mismatch")
	}
}
