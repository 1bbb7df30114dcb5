package chaos

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/cloud"
	"dcm/internal/graph"
	"dcm/internal/monitor"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// Injection is one entry in the injector's audit log: a fault that fired
// (or failed to find a victim), with the resolved target.
type Injection struct {
	At     time.Duration `json:"at"`
	Kind   Kind          `json:"kind"`
	Target string        `json:"target,omitempty"`
	// Detail describes what was done ("crashed ready VM", "repair", ...).
	Detail string `json:"detail,omitempty"`
	// Skipped is set when the fault found nothing to act on (e.g. no live
	// victim in the tier at injection time).
	Skipped bool `json:"skipped,omitempty"`
}

// ErrBadInjector is returned for invalid construction.
var ErrBadInjector = errors.New("chaos: invalid injector")

// Injector compiles a Schedule into engine events against a running
// topology. Construct it after the app/hypervisor/fleet exist but before
// eng.Run; Install schedules every fault.
type Injector struct {
	eng   *sim.Engine
	app   *graph.App
	hv    *cloud.Hypervisor
	fleet *monitor.Fleet
	sched Schedule

	// rands holds one decorrelated stream per fault, split up front in
	// declaration order so victim draws are independent of execution
	// interleaving.
	rands []*rng.Rand

	log           []Injection
	slowBootDepth int
	blackoutDepth int
	installed     bool
}

// NewInjector validates the schedule and prepares per-fault rng splits.
// rnd is the scenario's root stream; each fault i of kind k draws from
// Split("chaos/<i>/<k>"), so adding a fault never perturbs the draws of
// the ones before it.
func NewInjector(eng *sim.Engine, rnd *rng.Rand, app *graph.App, hv *cloud.Hypervisor, fleet *monitor.Fleet, sched Schedule) (*Injector, error) {
	if eng == nil || rnd == nil || app == nil || hv == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadInjector)
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{eng: eng, app: app, hv: hv, fleet: fleet, sched: sched}
	in.rands = make([]*rng.Rand, len(sched.Faults))
	for i, f := range sched.Faults {
		in.rands[i] = rnd.Split(fmt.Sprintf("chaos/%d/%s", i, f.Kind))
	}
	return in, nil
}

// Install schedules every fault on the engine, in schedule order at equal
// times. Install is idempotent.
func (in *Injector) Install() {
	if in.installed {
		return
	}
	in.installed = true
	now := in.eng.Now()
	for i, f := range in.sched.Faults {
		in.eng.ScheduleAt(now+f.At, func() { in.inject(i, f) })
	}
}

// Log returns a copy of the injection audit log.
func (in *Injector) Log() []Injection {
	out := make([]Injection, len(in.log))
	copy(out, in.log)
	return out
}

// record appends one audit entry.
func (in *Injector) record(f Fault, target, detail string, skipped bool) {
	in.log = append(in.log, Injection{
		At:      in.eng.Now(),
		Kind:    f.Kind,
		Target:  target,
		Detail:  detail,
		Skipped: skipped,
	})
}

// inject fires fault i now.
func (in *Injector) inject(i int, f Fault) {
	switch f.Kind {
	case KindVMCrash:
		in.injectCrash(i, f)
	case KindSlowBoot:
		in.injectSlowBoot(f)
	case KindDegrade:
		in.injectDegrade(i, f)
	case KindConnLeak:
		in.injectConnLeak(i, f)
	case KindBlackout:
		in.injectBlackout(f)
	}
}

// injectCrash kills one VM. Hypervisor-managed victims go through
// hv.Crash so the census and the VM-agent's OnCrash teardown fire;
// servers the app was seeded with directly (no hypervisor record) are
// failed in place.
func (in *Injector) injectCrash(i int, f Fault) {
	// An explicitly named victim.
	if f.VM != "" {
		if vm, err := in.hv.Get(f.VM); err == nil {
			if err := in.hv.Crash(vm); err != nil {
				in.record(f, f.VM, err.Error(), true)
				return
			}
			in.record(f, f.VM, "crashed "+vm.CrashedFrom().String()+" VM", false)
			return
		}
		in.failAppServer(f, f.Tier, f.VM)
		return
	}

	// Tier-targeted: prefer a ready hypervisor VM, drawn uniformly from
	// the fault's own stream.
	var ready []*cloud.VM
	for _, vm := range in.hv.Live(f.Tier) {
		if vm.State() == cloud.StateReady {
			ready = append(ready, vm)
		}
	}
	if len(ready) > 0 {
		vm := ready[in.rands[i].Intn(len(ready))]
		if err := in.hv.Crash(vm); err != nil {
			in.record(f, vm.Name(), err.Error(), true)
			return
		}
		in.record(f, vm.Name(), "crashed ready VM", false)
		return
	}
	// No hypervisor-managed capacity: fall back to the app's accepting
	// members (seed servers added before any scale-out).
	var names []string
	for _, m := range in.app.Members(f.Tier) {
		if m.Accepting() {
			names = append(names, m.Name())
		}
	}
	if len(names) == 0 {
		in.record(f, f.Tier, "no live victim in tier", true)
		return
	}
	in.failAppServer(f, f.Tier, names[in.rands[i].Intn(len(names))])
}

// failAppServer crashes a server the hypervisor does not manage: tear it
// out of the load balancer (erroring queued and in-flight work) and stop
// monitoring it.
func (in *Injector) failAppServer(f Fault, tierName, name string) {
	tiers := []string{tierName}
	if tierName == "" {
		tiers = in.app.NodeNames()
	}
	for _, t := range tiers {
		if err := in.app.FailMember(t, name); err == nil {
			if in.fleet != nil {
				in.fleet.Detach(name)
			}
			in.record(f, name, "crashed app server", false)
			return
		}
	}
	in.record(f, name, "no such server", true)
}

// injectSlowBoot raises the hypervisor prep factor for the window.
// Overlapping windows nest: the factor only returns to 1 when the last
// window closes, and a wider overlapping factor wins while it is active.
func (in *Injector) injectSlowBoot(f Fault) {
	in.slowBootDepth++
	if f.Factor > in.hv.PrepFactor() || in.slowBootDepth == 1 {
		in.hv.SetPrepFactor(f.Factor)
	}
	in.record(f, "", fmt.Sprintf("prep factor x%g", in.hv.PrepFactor()), false)
	in.eng.Schedule(f.Duration, func() {
		in.slowBootDepth--
		if in.slowBootDepth == 0 {
			in.hv.SetPrepFactor(1)
			in.record(f, "", "repair: prep factor x1", false)
		}
	})
}

// injectDegrade inflates one server's base service time for the window.
func (in *Injector) injectDegrade(i int, f Fault) {
	var victims []*graph.Member
	for _, m := range in.app.Members(f.Tier) {
		if m.Accepting() {
			victims = append(victims, m)
		}
	}
	if len(victims) == 0 {
		in.record(f, f.Tier, "no live victim in tier", true)
		return
	}
	m, ok := in.pick(victims, f.VM, in.rands[i])
	if !ok {
		in.record(f, f.VM, "no such server", true)
		return
	}
	srv := m.Server()
	srv.SetDegradeFactor(f.Factor)
	in.record(f, m.Name(), fmt.Sprintf("degraded S0 x%g", f.Factor), false)
	in.eng.Schedule(f.Duration, func() {
		srv.SetDegradeFactor(1)
		in.record(f, m.Name(), "repair: degrade cleared", false)
	})
}

// pick selects the named victim, or draws one uniformly when no name was
// given.
func (in *Injector) pick(victims []*graph.Member, name string, rnd *rng.Rand) (*graph.Member, bool) {
	if name == "" {
		return victims[rnd.Intn(len(victims))], true
	}
	for _, m := range victims {
		if m.Name() == name {
			return m, true
		}
	}
	return nil, false
}

// injectConnLeak consumes connections from one Tomcat's DB pool,
// repairing after Duration if one was given.
func (in *Injector) injectConnLeak(i int, f Fault) {
	var victims []*graph.Member
	for _, m := range in.app.Members(ntier.TierApp) {
		if m.Accepting() && m.Pool() != nil {
			victims = append(victims, m)
		}
	}
	if len(victims) == 0 {
		in.record(f, ntier.TierApp, "no live victim with a pool", true)
		return
	}
	m, ok := in.pick(victims, f.VM, in.rands[i])
	if !ok {
		in.record(f, f.VM, "no such server", true)
		return
	}
	pool := m.Pool()
	pool.Leak(f.Count)
	in.record(f, m.Name(), fmt.Sprintf("leaked %d connections", f.Count), false)
	if f.Duration > 0 {
		in.eng.Schedule(f.Duration, func() {
			pool.Unleak(f.Count)
			in.record(f, m.Name(), "repair: connections restored", false)
		})
	}
}

// injectBlackout suppresses monitor publishing for the window. Overlapping
// blackouts nest: publishing resumes only when the last window closes.
func (in *Injector) injectBlackout(f Fault) {
	if in.fleet == nil {
		in.record(f, "", "no monitoring fleet", true)
		return
	}
	in.blackoutDepth++
	in.fleet.SetBlackout(true)
	in.record(f, "", "monitoring dark", false)
	in.eng.Schedule(f.Duration, func() {
		in.blackoutDepth--
		if in.blackoutDepth == 0 {
			in.fleet.SetBlackout(false)
			in.record(f, "", "repair: monitoring restored", false)
		}
	})
}
