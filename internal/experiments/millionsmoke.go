package experiments

import (
	"fmt"
	"strings"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/rng"
	"dcm/internal/sim"
	"dcm/internal/trace"
	"dcm/internal/workload"
)

// MillionSmokeConfig parameterizes the million-user event-core smoke: a
// trace-driven closed loop ramped to a seven-figure user population
// against a fixed-latency target, exercising the timer wheel, arena and
// heap at the scale the event core is built for. It deliberately does
// NOT build an n-tier app — the smoke measures the event core, so the
// target costs one timer per request and nothing else.
//
// Each user thinks 3 s on average (the paper's RUBBoS client emulator
// setting), the target answers in a fixed 1 ms, and an invariant run
// sweeps the engine's structural laws every 10 s of virtual time (each
// sweep is O(pending events)) plus once at the end.
type MillionSmokeConfig struct {
	Seed uint64
	// Trace is the users-over-time profile; the run lasts its duration.
	// Nil synthesizes a 40 s sine ramp peaking at PeakUsers.
	Trace *trace.Trace
	// PeakUsers sizes the synthesized trace when Trace is nil. Defaults
	// to 1,000,000.
	PeakUsers int
	// Invariants attaches the runtime invariant checker.
	Invariants bool
}

const (
	millionThinkTime   = 3 * time.Second
	millionServiceTime = time.Millisecond
	millionCheckEvery  = 10 * time.Second
)

// MillionSmokeResult reports what the smoke run did.
type MillionSmokeResult struct {
	Trace        string        `json:"trace"`
	PeakUsers    int           `json:"peak_users"`
	Horizon      time.Duration `json:"horizon"`
	Events       uint64        `json:"events"`
	Completed    uint64        `json:"completed"`
	PeakPending  int           `json:"peak_pending"`
	PeakLive     int           `json:"peak_live"`
	Wall         time.Duration `json:"wall"`
	EventsPerSec float64       `json:"events_per_sec"`
	Sweeps       int           `json:"invariant_sweeps"`

	InvariantViolations []invariant.Violation `json:"invariant_violations,omitempty"`
}

// fixedLatencyTarget completes every request after a constant delay —
// the cheapest possible workload.Target, so the smoke run's cost is the
// event core itself.
//
// The pending done callbacks wait in a FIFO, and every request schedules
// the same pre-bound complete, so a request costs one timer and no
// allocation. FIFO order is exact: every request has the same latency, so
// completion times are ordered as injection times are, and the engine
// fires equal-time events in schedule order.
type fixedLatencyTarget struct {
	eng *sim.Engine
	lat time.Duration
	// pending[head:] are the in-flight done callbacks in injection order.
	// complete pops by advancing head, so the array is kept and reused.
	pending    []func(rt time.Duration, ok bool)
	head       int
	completeFn func()
}

func newFixedLatencyTarget(eng *sim.Engine, lat time.Duration) *fixedLatencyTarget {
	t := &fixedLatencyTarget{eng: eng, lat: lat}
	t.completeFn = t.complete
	return t
}

func (t *fixedLatencyTarget) Inject(done func(rt time.Duration, ok bool)) {
	t.InjectClass(-1, 0, done)
}

func (t *fixedLatencyTarget) InjectClass(_ int, _ uint64, done func(rt time.Duration, ok bool)) {
	// When the array is full and the popped prefix is at least half of
	// it, the pending callbacks slide to the front instead of the array
	// growing.
	if t.head > 0 && len(t.pending) == cap(t.pending) && 2*t.head >= len(t.pending) {
		n := copy(t.pending, t.pending[t.head:])
		clear(t.pending[n:])
		t.pending, t.head = t.pending[:n], 0
	}
	t.pending = append(t.pending, done)
	t.eng.Schedule(t.lat, t.completeFn)
}

// complete answers the oldest pending request. The callback is popped
// before it runs, so a done that injects again sees a consistent queue.
func (t *fixedLatencyTarget) complete() {
	done := t.pending[t.head]
	t.pending[t.head] = nil
	if t.head++; t.head == len(t.pending) {
		t.pending, t.head = t.pending[:0], 0
	}
	done(t.lat, true)
}

// RunMillionSmoke runs the smoke and returns its statistics. The run is
// deterministic in (Seed, Trace, PeakUsers);
// wall-clock fields are the only nondeterministic outputs.
func RunMillionSmoke(cfg MillionSmokeConfig) (MillionSmokeResult, error) {
	if cfg.PeakUsers <= 0 {
		cfg.PeakUsers = 1_000_000
	}
	tr := cfg.Trace
	if tr == nil {
		const total = 40 * time.Second
		// Sine with amplitude 2/3 of mean: ramps from a third of peak up
		// to PeakUsers and back, so growth, steady state and shrink are
		// all exercised.
		mean := (cfg.PeakUsers*3 + 4) / 5
		var err error
		tr, err = trace.SynthesizeSine("million-sine", mean, cfg.PeakUsers-mean,
			total/2, total, time.Second)
		if err != nil {
			return MillionSmokeResult{}, fmt.Errorf("experiments: million smoke trace: %w", err)
		}
	}
	horizon := tr.Duration()

	res := MillionSmokeResult{
		Trace:     tr.Name(),
		PeakUsers: tr.MaxUsers(),
		Horizon:   horizon,
	}
	var wl *workload.TraceDriven
	r, err := assemble(runPlan{
		seed: cfg.Seed,
		chk:  checker(cfg.Invariants),
		// The peak sampler and the sweep ticker start before the workload,
		// so each tick reads the state before that second's trace step.
		wire: func(r *run) error {
			r.eng.Ticker(time.Second, func() {
				if p := r.eng.Pending(); p > res.PeakPending {
					res.PeakPending = p
				}
				if l := wl.Loop().Live(); l > res.PeakLive {
					res.PeakLive = l
				}
			})
			if r.chk != nil {
				r.eng.Ticker(millionCheckEvery, r.sweep)
			}
			return nil
		},
		load: func(r *run, src *rng.Rand) (workload.Generator, error) {
			var err error
			wl, err = workload.NewTraceDriven(r.eng, src, newFixedLatencyTarget(r.eng, millionServiceTime),
				tr, millionThinkTime, time.Second)
			return wl, err
		},
		horizon: horizon,
	})
	if err != nil {
		return MillionSmokeResult{}, fmt.Errorf("experiments: million smoke: %w", err)
	}
	res.Wall = r.wall
	res.Events = r.eng.Processed()
	res.Completed = wl.Loop().TotalCompleted()
	if res.Wall > 0 {
		res.EventsPerSec = float64(res.Events) / res.Wall.Seconds()
	}
	res.Sweeps = r.sweeps
	res.InvariantViolations = r.violations
	return res, nil
}

// RenderMillionSmoke formats the result for the sweep CLI.
func RenderMillionSmoke(r MillionSmokeResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  trace            %s (peak %d users)\n", r.Trace, r.PeakUsers)
	fmt.Fprintf(&sb, "  horizon          %v virtual\n", r.Horizon)
	fmt.Fprintf(&sb, "  events           %d (%.0f events/s wall)\n", r.Events, r.EventsPerSec)
	fmt.Fprintf(&sb, "  completed        %d requests\n", r.Completed)
	fmt.Fprintf(&sb, "  peak pending     %d events\n", r.PeakPending)
	fmt.Fprintf(&sb, "  peak live users  %d\n", r.PeakLive)
	fmt.Fprintf(&sb, "  wall time        %v\n", r.Wall.Round(time.Millisecond))
	if r.Sweeps > 0 {
		fmt.Fprintf(&sb, "  invariant sweeps %d (%d violations)\n", r.Sweeps, len(r.InvariantViolations))
	}
	return sb.String()
}
