// Package chaos implements a seed-deterministic fault-injection engine
// for the DCM simulator. A declarative fault schedule — built from the Go
// API or parsed from a JSON scenario file — is compiled into sim.Engine
// events that perturb the substrate the way real clouds fail: VMs crash,
// instances boot slowly, nodes degrade, connection pools leak, and the
// monitoring pipeline goes dark.
//
// Cloud simulators in the related work (CloudSim, CloudNativeSim) treat
// failure modeling as a first-class simulation concern; this package does
// the same for the paper's two-level concurrency controller, which was
// only ever evaluated on a healthy testbed. Every fault draws from an
// rng.Rand split (Split("chaos/...")), so identical seeds replay
// identical failure traces — the property the determinism regression
// tests pin.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dcm/internal/ntier"
)

// Kind identifies a fault type.
type Kind string

// Fault kinds.
const (
	// KindVMCrash abruptly terminates a ready VM: the server is torn out
	// of the load balancer, queued and in-flight requests on it are
	// errored, and the hypervisor records the crash for the controller's
	// census.
	KindVMCrash Kind = "vm-crash"
	// KindSlowBoot multiplies the hypervisor's preparation period for
	// every launch inside the window — a degraded image store or
	// congested datacenter.
	KindSlowBoot Kind = "slow-boot"
	// KindDegrade inflates one server's Equation 5 base service time S0
	// by a factor for the window — a noisy neighbour or failing disk.
	KindDegrade Kind = "degraded-server"
	// KindConnLeak consumes k connections from one Tomcat's DB connection
	// pool until repaired — an application bug that never returns
	// connections.
	KindConnLeak Kind = "conn-leak"
	// KindBlackout suppresses all monitoring samples for the window,
	// forcing the controller to act (or refuse to act) on stale data.
	KindBlackout Kind = "monitor-blackout"
)

// Fault is one declarative fault.
type Fault struct {
	// Kind selects the fault type.
	Kind Kind `json:"kind"`
	// At is the injection time.
	At time.Duration `json:"at"`
	// Duration is the fault window for window faults (slow-boot, degrade,
	// blackout) and the time-to-repair for conn-leak (0 = never
	// repaired). Ignored by vm-crash.
	Duration time.Duration `json:"duration,omitempty"`
	// Tier targets a tier (vm-crash, degraded-server, conn-leak; the
	// latter implies the app tier when empty).
	Tier string `json:"tier,omitempty"`
	// VM names an explicit victim; empty picks one deterministically from
	// the fault's rng split.
	VM string `json:"vm,omitempty"`
	// Factor is the slow-boot prep multiplier or the degrade S0 factor.
	Factor float64 `json:"factor,omitempty"`
	// Count is the number of connections a conn-leak consumes.
	Count int `json:"count,omitempty"`
}

// String renders the fault compactly for logs and reports.
func (f Fault) String() string {
	switch f.Kind {
	case KindVMCrash:
		target := f.VM
		if target == "" {
			target = f.Tier
		}
		return fmt.Sprintf("%s@%v %s", f.Kind, f.At, target)
	case KindSlowBoot:
		return fmt.Sprintf("%s@%v x%.1f for %v", f.Kind, f.At, f.Factor, f.Duration)
	case KindDegrade:
		return fmt.Sprintf("%s@%v %s x%.1f for %v", f.Kind, f.At, f.Tier, f.Factor, f.Duration)
	case KindConnLeak:
		return fmt.Sprintf("%s@%v %s k=%d for %v", f.Kind, f.At, f.Tier, f.Count, f.Duration)
	case KindBlackout:
		return fmt.Sprintf("%s@%v for %v", f.Kind, f.At, f.Duration)
	default:
		return fmt.Sprintf("%s@%v", f.Kind, f.At)
	}
}

// ErrBadSchedule is returned for invalid schedules.
var ErrBadSchedule = errors.New("chaos: invalid schedule")

// Schedule is a named, validated set of faults.
type Schedule struct {
	Name   string  `json:"name"`
	Faults []Fault `json:"faults"`
}

// Validate checks every fault. It returns the first problem found.
func (s Schedule) Validate() error {
	if len(s.Faults) == 0 {
		return fmt.Errorf("%w: no faults", ErrBadSchedule)
	}
	for i, f := range s.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("%w: fault %d (%s): %v", ErrBadSchedule, i, f.Kind, err)
		}
	}
	return nil
}

// validate checks one fault's parameters.
func (f Fault) validate() error {
	if f.At < 0 {
		return fmt.Errorf("negative injection time %v", f.At)
	}
	if f.Duration < 0 {
		return fmt.Errorf("negative duration %v", f.Duration)
	}
	switch f.Kind {
	case KindVMCrash:
		if f.Tier == "" && f.VM == "" {
			return errors.New("needs a tier or vm target")
		}
	case KindSlowBoot:
		if f.Factor <= 0 {
			return fmt.Errorf("needs a positive factor, got %v", f.Factor)
		}
		if f.Duration == 0 {
			return errors.New("needs a window duration")
		}
	case KindDegrade:
		if f.Tier == "" {
			return errors.New("needs a tier target")
		}
		if f.Factor < 1 {
			return fmt.Errorf("needs a factor >= 1, got %v", f.Factor)
		}
		if f.Duration == 0 {
			return errors.New("needs a window duration")
		}
	case KindConnLeak:
		if f.Tier != "" && f.Tier != ntier.TierApp {
			return fmt.Errorf("targets DB connection pools, which live on the app tier, not %q", f.Tier)
		}
		if f.Count < 1 {
			return fmt.Errorf("needs a positive connection count, got %d", f.Count)
		}
	case KindBlackout:
		if f.Duration == 0 {
			return errors.New("needs a window duration")
		}
	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	return nil
}

// sorted returns the faults in injection order (stable for equal times,
// preserving declaration order — the same order the injector schedules
// them, so replays are exact).
func (s Schedule) sorted() []Fault {
	out := make([]Fault, len(s.Faults))
	copy(out, s.Faults)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
