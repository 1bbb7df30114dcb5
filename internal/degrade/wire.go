package degrade

import (
	"time"

	"dcm/internal/controller"
	"dcm/internal/graph"
	"dcm/internal/ntier"
	"dcm/internal/policy"
	"dcm/internal/resilience"
	"dcm/internal/sim"
)

// ForApp wires a supervisor to a running application: probes read the
// app's lifetime counters and the app tier's queue-depth histograms,
// actions drive the brownout shed, admission scaling and (when a retrier
// is given) retry-budget tightening, and every transition lands in the
// audit log (when one is given) under the brownout reason codes. retrier
// and audit may be nil.
func ForApp(eng *sim.Engine, app *graph.App, ret *resilience.Retrier,
	audit *controller.AuditLog, rules policy.DegradeRules) (*Supervisor, error) {
	probes := Probes{
		Injected:  app.TotalInjected,
		Good:      app.TotalGood,
		Completed: app.TotalCompletions,
		Sheds:     app.BrownoutSheds,
		QueueDepth: func() (float64, uint64) {
			return app.NodeQueueDepthTotals(ntier.TierApp)
		},
	}
	if ret != nil {
		probes.Retries = func() uint64 { return ret.Stats().Retries }
	}
	actions := Actions{
		Shed:      app.SetBrownoutShed,
		Admission: app.ScaleAdmission,
	}
	if ret != nil {
		actions.RetryScale = ret.SetBudgetScale
	}
	if audit != nil {
		actions.Note = func(at time.Duration, entered bool, reason string) {
			code := controller.CodeBrownoutExit
			if entered {
				code = controller.CodeBrownoutEnter
			}
			audit.Note(at, "degrade", []controller.Hold{{Code: code, Detail: reason}})
		}
	}
	return New(eng, rules, probes, actions)
}
