package graph

import "math"

// Brownout hooks: the actuation surface internal/degrade drives. All of
// it is deterministic and rng-free — the shed decision uses an
// error-diffusion accumulator, the admission scaling rounds up — so a
// supervisor that never fires leaves a run byte-identical to one that was
// never attached.

// SetBrownoutShed sets the front-door shed ratio in [0, 1] applied to
// best-effort (non-critical) arrivals. Zero disables the shed and resets
// the diffusion accumulator so a later brownout starts from a clean
// phase.
func (a *App) SetBrownoutShed(ratio float64) {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	a.brownoutShed = ratio
	if ratio == 0 {
		a.brownoutAcc = 0
	}
}

// brownoutTake decides one arrival: the accumulator gains the shed ratio
// per arrival and sheds on every whole token, so a ratio of 0.5 sheds
// exactly every second best-effort request — deterministic, no rng.
func (a *App) brownoutTake() bool {
	a.brownoutAcc += a.brownoutShed
	if a.brownoutAcc >= 1 {
		a.brownoutAcc--
		return true
	}
	return false
}

// BrownoutSheds returns the lifetime count of brownout front-door sheds
// (a subset of the Shed disposition tally).
func (a *App) BrownoutSheds() uint64 { return a.brownoutSheds }

// ScaleAdmission multiplies every bounded queue's admission cap by f
// (clamped to [0, 1]; 1 restores the configured cap). Servers keep at
// least a cap of 1 so a node never becomes a total blackhole, and
// requests already queued above a shrunken cap are grandfathered by the
// server until the backlog drains. A no-op when the resilience config has
// no bounded queues.
func (a *App) ScaleAdmission(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	a.admissionScale = f
	if a.res.MaxQueue <= 0 {
		return
	}
	cap := a.scaledMaxQueue()
	for _, n := range a.nodes {
		for _, m := range n.balancer.Backends() {
			m.srv.SetMaxQueue(cap)
		}
	}
}

// scaledMaxQueue is the admission cap under the live scale, never below 1.
func (a *App) scaledMaxQueue() int {
	cap := int(math.Ceil(float64(a.res.MaxQueue) * a.admissionScale))
	if cap < 1 {
		cap = 1
	}
	return cap
}
