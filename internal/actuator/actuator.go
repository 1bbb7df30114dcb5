// Package actuator implements the VM-agent of the DCM architecture (§IV,
// Fig. 3), which starts new VMs (with the paper's 15-second preparation
// period) and drains and removes idle ones, rebalancing the tier's load
// balancer in both directions. The other actuator, the APP-agent, is
// ntier.SetAllocation: it adapts the chain's soft-resource allocations
// (Tomcat thread pools and DB connection pools) at runtime without
// interrupting in-flight requests.
package actuator

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/cloud"
	"dcm/internal/graph"
	"dcm/internal/sim"
)

// AgentMonitor is the subset of the monitoring fleet the VM-agent needs:
// it attaches an agent to servers that join and detaches agents from
// servers that leave. A nil AgentMonitor disables monitoring integration.
type AgentMonitor interface {
	Attach(tierName, vmName string) error
	Detach(vmName string)
}

// Record is one executed (or failed) actuation, kept for the experiment
// reports (the scaling-activity marks on Fig. 5(c)–(f)).
type Record struct {
	At   time.Duration `json:"at"`
	Kind string        `json:"kind"` // "launch", "ready", "drain", "remove",
	// "crash", "timeout", "retry", "give-up"
	Tier   string `json:"tier,omitempty"`
	VM     string `json:"vm,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// ErrBadAgent is returned for invalid agent construction.
var ErrBadAgent = errors.New("actuator: invalid agent")

// Launch-retry policy: a launch that dies (or stalls past the watchdog
// deadline) is retried with exponential backoff, bounded so a broken
// substrate cannot trap the agent in a launch loop.
const (
	defaultMaxLaunchRetries = 3
	defaultRetryBackoff     = 2 * time.Second
	defaultWatchdogFactor   = 4
)

// pendingLaunch tracks one in-flight ScaleOut until its VM serves.
type pendingLaunch struct {
	tier     string
	attempt  int
	watchdog sim.Timer
}

// VMAgent performs VM-level scaling against the hypervisor and the
// application's load balancers.
type VMAgent struct {
	eng     *sim.Engine
	hv      *cloud.Hypervisor
	app     *graph.App
	mon     AgentMonitor
	pending map[string]int // tier -> launches not yet serving
	records []Record

	launches map[string]*pendingLaunch // vm name -> in-flight launch
}

// NewVMAgent builds a VM-agent. mon may be nil. The agent subscribes to
// the hypervisor's crash hook: a VM that crashes while provisioning is
// relaunched with bounded exponential backoff, and a serving VM that
// crashes is torn out of the load balancer and monitoring fleet so
// traffic stops routing to it.
func NewVMAgent(eng *sim.Engine, hv *cloud.Hypervisor, app *graph.App, mon AgentMonitor) (*VMAgent, error) {
	if eng == nil || hv == nil || app == nil {
		return nil, fmt.Errorf("%w: nil dependency", ErrBadAgent)
	}
	va := &VMAgent{
		eng:      eng,
		hv:       hv,
		app:      app,
		mon:      mon,
		pending:  make(map[string]int),
		launches: make(map[string]*pendingLaunch),
	}
	hv.OnCrash(va.handleCrash)
	return va, nil
}

// Pending returns the number of VMs launched for tier that are not yet
// serving.
func (va *VMAgent) Pending(tier string) int { return va.pending[tier] }

// nextName returns the first "<tier>-<n>" name free in both the
// application (which names its initial servers the same way) and the
// hypervisor.
func (va *VMAgent) nextName(tier string) string {
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s-%d", tier, i)
		if _, err := va.app.Member(tier, name); err == nil {
			continue
		}
		if _, err := va.hv.Get(name); err == nil {
			continue
		}
		return name
	}
}

// ScaleOut launches one VM for tier; after the hypervisor's preparation
// period the new server joins the tier's load balancer with the tier's
// current soft-resource allocation and gets a monitoring agent. The VM
// name is returned immediately. If the VM crashes or stalls during its
// preparation period the agent relaunches it with bounded backoff.
func (va *VMAgent) ScaleOut(tier string) (string, error) {
	return va.launch(tier, 0)
}

// launch performs one launch attempt (attempt 0 is the original request).
func (va *VMAgent) launch(tier string, attempt int) (string, error) {
	name := va.nextName(tier)
	va.pending[tier]++
	pl := &pendingLaunch{tier: tier, attempt: attempt}
	_, err := va.hv.Launch(name, tier, func(vm *cloud.VM) {
		va.pending[tier]--
		pl.watchdog.Cancel()
		delete(va.launches, name)
		if _, err := va.app.AddMember(tier, name); err != nil {
			va.record("ready", tier, name, "join failed: "+err.Error())
			return
		}
		if va.mon != nil {
			if err := va.mon.Attach(tier, name); err != nil {
				va.record("ready", tier, name, "monitor attach failed: "+err.Error())
				return
			}
		}
		va.record("ready", tier, name, "")
	})
	if err != nil {
		va.pending[tier]--
		return "", fmt.Errorf("actuator: scale out %s: %w", tier, err)
	}
	va.launches[name] = pl
	if prep := va.hv.PrepDelay(); prep > 0 {
		pl.watchdog = va.eng.Schedule(prep*defaultWatchdogFactor, func() { va.launchTimedOut(name, pl) })
	}
	detail := ""
	if attempt > 0 {
		detail = fmt.Sprintf("retry %d", attempt)
	}
	va.record("launch", tier, name, detail)
	return name, nil
}

// launchTimedOut abandons a launch still provisioning past the watchdog
// deadline — a slow-boot (or silently lost) instance — and retries.
func (va *VMAgent) launchTimedOut(name string, pl *pendingLaunch) {
	vm, err := va.hv.Get(name)
	if err != nil || vm.State() != cloud.StateProvisioning {
		return
	}
	delete(va.launches, name)
	va.pending[pl.tier]--
	_ = va.hv.Terminate(vm)
	va.record("timeout", pl.tier, name,
		fmt.Sprintf("still provisioning after %dx prep delay; abandoning instance", defaultWatchdogFactor))
	va.retry(pl.tier, pl.attempt+1)
}

// handleCrash is the hypervisor OnCrash hook: relaunch a provisioning VM
// that died, or tear a crashed serving VM out of the application.
func (va *VMAgent) handleCrash(vm *cloud.VM) {
	name, tier := vm.Name(), vm.Tier()
	if pl, ok := va.launches[name]; ok {
		// The launch never delivered capacity: the scale-out decision still
		// stands, so retry it.
		pl.watchdog.Cancel()
		delete(va.launches, name)
		va.pending[tier]--
		va.record("crash", tier, name, "crashed while provisioning")
		va.retry(tier, pl.attempt+1)
		return
	}
	// A serving VM crashed: remove the dead server from the balancer (its
	// in-flight requests fail — their connections died with the process)
	// and retire its monitoring agent. Re-provisioning the lost capacity
	// is the controller's decision, made from the hypervisor census.
	if _, err := va.app.Member(tier, name); err == nil {
		_ = va.app.FailMember(tier, name)
	}
	if va.mon != nil {
		va.mon.Detach(name)
	}
	va.record("crash", tier, name, "removed crashed server")
}

// retry schedules the next launch attempt with exponential backoff, up to
// the retry bound.
func (va *VMAgent) retry(tier string, attempt int) {
	if attempt > defaultMaxLaunchRetries {
		va.record("give-up", tier, "", fmt.Sprintf("launch abandoned after %d attempts", attempt))
		return
	}
	delay := defaultRetryBackoff << (attempt - 1)
	va.eng.Schedule(delay, func() {
		if _, err := va.launch(tier, attempt); err != nil {
			va.record("retry", tier, "", "relaunch failed: "+err.Error())
		}
	})
}

// ScaleIn drains and removes one server from tier: the most recently
// added serving VM is marked draining (no new requests), and once idle it
// is detached from the balancer and its VM terminated. The victim's name
// is returned immediately.
func (va *VMAgent) ScaleIn(tier string) (string, error) {
	victim := va.pickVictim(tier)
	if victim == "" {
		return "", fmt.Errorf("actuator: scale in %s: no removable server", tier)
	}
	if err := va.app.StartDrain(tier, victim, func() {
		if err := va.app.RemoveMember(tier, victim); err != nil {
			va.record("remove", tier, victim, "remove failed: "+err.Error())
			return
		}
		if va.mon != nil {
			va.mon.Detach(victim)
		}
		if vm, err := va.hv.Get(victim); err == nil {
			_ = va.hv.Terminate(vm)
		}
		va.record("remove", tier, victim, "")
	}); err != nil {
		return "", fmt.Errorf("actuator: scale in %s: %w", tier, err)
	}
	if vm, err := va.hv.Get(victim); err == nil {
		_ = va.hv.Drain(vm)
	}
	va.record("drain", tier, victim, "")
	return victim, nil
}

// pickVictim chooses the last accepting member of the tier (newest first,
// so the fleet shrinks in reverse launch order).
func (va *VMAgent) pickVictim(tier string) string {
	members := va.app.Members(tier)
	for i := len(members) - 1; i >= 0; i-- {
		if members[i].Accepting() {
			return members[i].Name()
		}
	}
	return ""
}

func (va *VMAgent) record(kind, tier, vm, detail string) {
	va.records = append(va.records, Record{
		At:     va.eng.Now(),
		Kind:   kind,
		Tier:   tier,
		VM:     vm,
		Detail: detail,
	})
}
