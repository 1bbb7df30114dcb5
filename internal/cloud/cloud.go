// Package cloud simulates the IaaS substrate the paper scales on: virtual
// machines with a provisioning delay, lifecycle states, and an audit log of
// scaling activities. The VM-agent (§IV-A) starts and stops VMs through
// this package exactly as it would call a hypervisor API; the paper's
// 15-second "preparation period" before a VM enters service mode is the
// default provisioning delay.
package cloud

import (
	"errors"
	"fmt"
	"time"

	"dcm/internal/sim"
)

// State is a VM lifecycle state.
type State int

// VM lifecycle states.
const (
	StateProvisioning State = iota + 1
	StateReady
	StateDraining
	StateTerminated
	StateCrashed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateProvisioning:
		return "provisioning"
	case StateReady:
		return "ready"
	case StateDraining:
		return "draining"
	case StateTerminated:
		return "terminated"
	case StateCrashed:
		return "crashed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// gone reports whether the state is terminal (the VM no longer exists as
// far as capacity is concerned).
func (s State) gone() bool { return s == StateTerminated || s == StateCrashed }

// VM is one simulated virtual machine.
type VM struct {
	name        string
	tier        string
	state       State
	crashedFrom State // state the VM was in when it crashed (zero otherwise)
	launched    sim.Time
	readyAt     sim.Time
	prepEvent   sim.Timer
}

// Name returns the VM name (unique per hypervisor).
func (v *VM) Name() string { return v.name }

// Tier returns the application tier the VM was launched for.
func (v *VM) Tier() string { return v.tier }

// State returns the current lifecycle state.
func (v *VM) State() State { return v.state }

// CrashedFrom returns the state the VM was in when it crashed; zero unless
// the VM is in StateCrashed.
func (v *VM) CrashedFrom() State { return v.crashedFrom }

// Event is one entry in the hypervisor's scaling audit log.
type Event struct {
	At     sim.Time `json:"at"`
	VM     string   `json:"vm"`
	Tier   string   `json:"tier"`
	Action string   `json:"action"` // "launch", "ready", "adopt", "drain", "terminate", "crash"
}

// Errors returned by the hypervisor.
var (
	ErrDuplicateVM = errors.New("cloud: vm name already exists")
	ErrUnknownVM   = errors.New("cloud: unknown vm")
	ErrBadState    = errors.New("cloud: operation invalid in current state")
)

// Hypervisor manages simulated VMs on a sim.Engine.
type Hypervisor struct {
	eng        *sim.Engine
	prepDelay  time.Duration
	prepFactor float64
	vms        map[string]*VM
	events     []Event
	seq        int
	onCrash    []func(*VM)
}

// NewHypervisor returns a hypervisor whose VMs take prepDelay to become
// ready after launch (the paper uses 15 s). A non-positive prepDelay means
// VMs are ready immediately (still via a zero-delay event, preserving
// callback ordering).
func NewHypervisor(eng *sim.Engine, prepDelay time.Duration) *Hypervisor {
	if prepDelay < 0 {
		prepDelay = 0
	}
	return &Hypervisor{
		eng:        eng,
		prepDelay:  prepDelay,
		prepFactor: 1,
		vms:        make(map[string]*VM),
	}
}

// PrepDelay returns the configured provisioning delay.
func (h *Hypervisor) PrepDelay() time.Duration { return h.prepDelay }

// SetPrepFactor scales the preparation period of *future* launches by f —
// the degraded-image/congested-datacenter condition the chaos slow-boot
// fault injects. VMs already provisioning keep their original schedule.
// Non-positive factors are clamped to 0 (instant boot).
func (h *Hypervisor) SetPrepFactor(f float64) {
	if f < 0 {
		f = 0
	}
	h.prepFactor = f
}

// PrepFactor returns the current preparation-period multiplier.
func (h *Hypervisor) PrepFactor() float64 { return h.prepFactor }

// OnCrash registers a hook invoked (in registration order) whenever a VM
// crashes. The VM-agent uses it to retry launches that died during their
// preparation period.
func (h *Hypervisor) OnCrash(fn func(*VM)) {
	if fn != nil {
		h.onCrash = append(h.onCrash, fn)
	}
}

// Launch starts a VM for tier. After the preparation period the VM becomes
// StateReady and onReady (if non-nil) is invoked — the moment the paper's
// VM-agent attaches the new server to the load balancer.
func (h *Hypervisor) Launch(name, tier string, onReady func(*VM)) (*VM, error) {
	if _, exists := h.vms[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVM, name)
	}
	delay := time.Duration(float64(h.prepDelay) * h.prepFactor)
	vm := &VM{
		name:     name,
		tier:     tier,
		state:    StateProvisioning,
		launched: h.eng.Now(),
		readyAt:  h.eng.Now() + delay,
	}
	h.vms[name] = vm
	h.log(vm, "launch")
	vm.prepEvent = h.eng.Schedule(delay, func() {
		if vm.state != StateProvisioning {
			return // terminated while provisioning
		}
		vm.state = StateReady
		vm.readyAt = h.eng.Now()
		h.log(vm, "ready")
		if onReady != nil {
			onReady(vm)
		}
	})
	return vm, nil
}

// Adopt registers an externally created, already-serving server (e.g. a
// seed server the application started with before any scaling) as a ready
// VM, so the census, the crash path and scale-in cover it like any
// launched VM.
func (h *Hypervisor) Adopt(name, tier string) (*VM, error) {
	if _, exists := h.vms[name]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVM, name)
	}
	vm := &VM{
		name:     name,
		tier:     tier,
		state:    StateReady,
		launched: h.eng.Now(),
		readyAt:  h.eng.Now(),
	}
	h.vms[name] = vm
	h.log(vm, "adopt")
	return vm, nil
}

// Drain marks a ready VM as draining: it stays up but should receive no new
// work. Draining an already-draining VM is a no-op.
func (h *Hypervisor) Drain(vm *VM) error {
	switch vm.state {
	case StateDraining:
		return nil
	case StateReady:
		vm.state = StateDraining
		h.log(vm, "drain")
		return nil
	default:
		return fmt.Errorf("%w: drain %q in %v", ErrBadState, vm.name, vm.state)
	}
}

// Terminate shuts a VM down from any live state. Terminating a
// provisioning VM cancels its pending readiness callback.
func (h *Hypervisor) Terminate(vm *VM) error {
	if vm.state.gone() {
		return fmt.Errorf("%w: terminate %q in %v", ErrBadState, vm.name, vm.state)
	}
	vm.prepEvent.Cancel()
	vm.state = StateTerminated
	h.log(vm, "terminate")
	return nil
}

// Crash kills a VM abruptly from any live state — the chaos fault path. It
// cancels a provisioning VM's pending readiness callback (onReady must
// never fire for a dead VM), records the state the VM crashed from, logs a
// "crash" audit event, and fires the OnCrash hooks. Unlike Terminate,
// which models an orderly shutdown requested by the VM-agent, Crash models
// the hypervisor losing the instance.
func (h *Hypervisor) Crash(vm *VM) error {
	if vm.state.gone() {
		return fmt.Errorf("%w: crash %q in %v", ErrBadState, vm.name, vm.state)
	}
	vm.prepEvent.Cancel()
	vm.crashedFrom = vm.state
	vm.state = StateCrashed
	h.log(vm, "crash")
	for _, fn := range h.onCrash {
		fn(vm)
	}
	return nil
}

// Get returns the VM with the given name.
func (h *Hypervisor) Get(name string) (*VM, error) {
	vm, ok := h.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownVM, name)
	}
	return vm, nil
}

// Live returns the VMs of a tier that are not terminated, in launch order.
// An empty tier selects all tiers.
func (h *Hypervisor) Live(tier string) []*VM {
	var out []*VM
	for _, vm := range h.vms {
		if !vm.state.gone() && (tier == "" || vm.tier == tier) {
			out = append(out, vm)
		}
	}
	sortVMs(out)
	return out
}

// CountCrashedServing returns the number of the tier's VMs that crashed
// out of a serving state (ready or draining) — the hypervisor census the
// controller diffs each period to detect dead capacity. VMs that crashed
// while still provisioning are excluded: those launches never delivered
// capacity and the VM-agent retries them itself.
func (h *Hypervisor) CountCrashedServing(tier string) int {
	n := 0
	for _, vm := range h.vms {
		if vm.tier == tier && vm.state == StateCrashed &&
			(vm.crashedFrom == StateReady || vm.crashedFrom == StateDraining) {
			n++
		}
	}
	return n
}

// Events returns a copy of the scaling audit log in chronological order.
func (h *Hypervisor) Events() []Event {
	out := make([]Event, len(h.events))
	copy(out, h.events)
	return out
}

func (h *Hypervisor) log(vm *VM, action string) {
	h.events = append(h.events, Event{
		At:     h.eng.Now(),
		VM:     vm.name,
		Tier:   vm.tier,
		Action: action,
	})
}

func sortVMs(vms []*VM) {
	// Insertion sort by launch time then name; fleets are small.
	for i := 1; i < len(vms); i++ {
		for j := i; j > 0 && less(vms[j], vms[j-1]); j-- {
			vms[j], vms[j-1] = vms[j-1], vms[j]
		}
	}
}

func less(a, b *VM) bool {
	if a.launched != b.launched {
		return a.launched < b.launched
	}
	return a.name < b.name
}
