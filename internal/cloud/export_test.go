package cloud

import (
	"fmt"

	"dcm/internal/sim"
)

// Used only by this package's tests; no production code calls these.

// NextName generates a unique VM name for a tier ("app-3").
func (h *Hypervisor) NextName(tier string) string {
	h.seq++
	return fmt.Sprintf("%s-%d", tier, h.seq)
}

// LaunchedAt returns when the VM was requested.
func (v *VM) LaunchedAt() sim.Time { return v.launched }

// ReadyAt returns when the VM entered (or will enter) service mode; it is
// meaningful once the VM has left StateProvisioning.
func (v *VM) ReadyAt() sim.Time { return v.readyAt }

// CountReady returns the number of ready (serving) VMs in tier.
func (h *Hypervisor) CountReady(tier string) int {
	n := 0
	for _, vm := range h.vms {
		if vm.tier == tier && vm.state == StateReady {
			n++
		}
	}
	return n
}

// CountLive returns the number of non-terminated VMs in tier, including
// those still provisioning — the count scaling decisions must consider so
// a burst does not launch a new VM every control period while the first
// one boots.
func (h *Hypervisor) CountLive(tier string) int {
	n := 0
	for _, vm := range h.vms {
		if vm.tier == tier && !vm.state.gone() {
			n++
		}
	}
	return n
}
