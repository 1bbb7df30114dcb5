package controller

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcm/internal/model"
	"dcm/internal/ntier"
	"dcm/internal/policy"
)

func findHold(holds []Hold, code ReasonCode, tier string) *Hold {
	for i := range holds {
		if holds[i].Code == code && (tier == "" || holds[i].Tier == tier) {
			return &holds[i]
		}
	}
	return nil
}

// TestAuditRecordsReasonCodes drives the DCM controller through the three
// scenarios the issue calls out — a crash re-provisioning, a NoData
// blackout, and steady state — and checks every one shows up in the audit
// log with its machine-readable code.
func TestAuditRecordsReasonCodes(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	log := NewAuditLog()
	c.EnableAudit(log)

	alloc := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 11, DBConnsPerAppServer: 4}

	// Period 1: a crashed app VM.
	v := view(0.5, 0.5, 1, 1, 1, 1, alloc)
	v.At = 15 * time.Second
	ts := v.Tiers[ntier.TierApp]
	ts.Crashed = 1
	ts.Live = 2
	v.Tiers[ntier.TierApp] = ts
	actions := c.Evaluate(v)
	if a := findAction(actions, ActionScaleOut, ntier.TierApp); a == nil || a.Code != CodeCrashReprovision {
		t.Fatalf("crash re-provision action missing or uncoded: %+v", actions)
	}

	// Period 2: monitor blackout on the db tier.
	v = view(0.5, 0, 2, 2, 1, 1, alloc)
	v.At = 30 * time.Second
	ts = v.Tiers[ntier.TierDB]
	ts.NoData = true
	v.Tiers[ntier.TierDB] = ts
	c.Evaluate(v)

	// Period 3: both tiers steady.
	v = view(0.5, 0.5, 2, 2, 1, 1, alloc)
	v.At = 45 * time.Second
	c.Evaluate(v)

	if log.Len() != 3 {
		t.Fatalf("decisions = %d, want 3", log.Len())
	}
	ds := log.Decisions()
	if ds[0].Controller != "dcm" || ds[0].At != 15*time.Second {
		t.Fatalf("decision 0 header: %+v", ds[0])
	}
	if findHold(ds[1].Holds, CodeNoDataHold, ntier.TierDB) == nil {
		t.Fatalf("nodata hold missing: %+v", ds[1].Holds)
	}
	if findHold(ds[2].Holds, CodeSteady, ntier.TierApp) == nil {
		t.Fatalf("steady hold missing: %+v", ds[2].Holds)
	}
	// The DCM decisions carry the planner inputs and output.
	if ds[2].TomcatModel == nil || ds[2].MySQLModel == nil || ds[2].Planned == nil {
		t.Fatalf("planner snapshot missing: %+v", ds[2])
	}

	counts := map[ReasonCode]int{}
	for _, cc := range log.CodeCounts() {
		counts[cc.Code] = cc.Count
	}
	for _, code := range []ReasonCode{CodeCrashReprovision, CodeNoDataHold, CodeSteady} {
		if counts[code] == 0 {
			t.Errorf("code %s not tallied: %v", code, counts)
		}
	}

	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3", len(lines))
	}
	var rec Decision
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not json: %v", err)
	}
	if rec.Controller != "dcm" {
		t.Fatalf("round-tripped controller = %q", rec.Controller)
	}
	if !strings.Contains(log.RenderSummary(), string(CodeCrashReprovision)) {
		t.Fatalf("summary missing code: %s", log.RenderSummary())
	}
}

// TestAuditDoesNotChangeDecisions runs the same view sequence through an
// audited and an unaudited controller and requires identical actions —
// auditing is pure observation.
func TestAuditDoesNotChangeDecisions(t *testing.T) {
	t.Parallel()
	run := func(audited bool) [][]Action {
		c := mustDCM(t)
		if audited {
			c.EnableAudit(NewAuditLog())
		}
		alloc := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 11, DBConnsPerAppServer: 4}
		var out [][]Action
		for i, cpu := range []float64{0.9, 0.9, 0.3, 0.3, 0.3, 0.3, 0.5} {
			v := view(cpu, 0.5, 2, 2, 1, 1, alloc)
			v.At = time.Duration(i) * 15 * time.Second
			out = append(out, c.Evaluate(v))
		}
		return out
	}
	plain, audited := run(false), run(true)
	if !reflect.DeepEqual(plain, audited) {
		t.Fatalf("auditing changed decisions:\nplain:   %+v\naudited: %+v", plain, audited)
	}
}

// TestAuditHoldCodesOnVMLevel exercises the hold paths of the shared VM
// level: launch-in-flight, at-max, awaiting-low, at-min, tier-unseen.
func TestAuditHoldCodesOnVMLevel(t *testing.T) {
	t.Parallel()
	p := DefaultPolicy()
	p.MaxServers = 2
	vm, err := newVMLevel(p)
	if err != nil {
		t.Fatal(err)
	}
	alloc := model.Allocation{}

	// Hot tier with a launch already in flight.
	_, holds := vm.evaluate(view(0.9, 0.5, 1, 2, 1, 1, alloc))
	if findHold(holds, CodeLaunchInFlight, ntier.TierApp) == nil {
		t.Fatalf("launch-in-flight missing: %+v", holds)
	}
	// Hot tier pinned at max.
	_, holds = vm.evaluate(view(0.9, 0.5, 2, 2, 1, 1, alloc))
	if findHold(holds, CodeAtMaxServers, ntier.TierApp) == nil {
		t.Fatalf("at-max missing: %+v", holds)
	}
	// Quiet period 1 of 3.
	_, holds = vm.evaluate(view(0.2, 0.5, 2, 2, 1, 1, alloc))
	h := findHold(holds, CodeAwaitingLow, ntier.TierApp)
	if h == nil || !strings.Contains(h.Detail, "1 of 3") {
		t.Fatalf("awaiting-low missing or wrong: %+v", holds)
	}
	// Quiet db tier at min for the full countdown.
	for i := 0; i < p.LowerConsecutive; i++ {
		_, holds = vm.evaluate(view(0.5, 0.2, 2, 2, 1, 1, alloc))
	}
	if findHold(holds, CodeAtMinServers, ntier.TierDB) == nil {
		t.Fatalf("at-min missing: %+v", holds)
	}
	// A tier absent from the view entirely.
	v := view(0.5, 0.5, 2, 2, 1, 1, alloc)
	delete(v.Tiers, ntier.TierDB)
	_, holds = vm.evaluate(v)
	if findHold(holds, CodeTierUnseen, ntier.TierDB) == nil {
		t.Fatalf("tier-unseen missing: %+v", holds)
	}
	// Crash replacements clamped by MaxServers.
	v = view(0.5, 0.5, 1, 2, 1, 1, alloc)
	ts := v.Tiers[ntier.TierApp]
	ts.Crashed = 2
	v.Tiers[ntier.TierApp] = ts
	actions, holds := vm.evaluate(v)
	if len(actions) != 0 {
		t.Fatalf("clamped re-provision still acted: %+v", actions)
	}
	if findHold(holds, CodeMaxServersClamp, ntier.TierApp) == nil {
		t.Fatalf("max-servers-clamp missing: %+v", holds)
	}
}

// TestAuditConcurrencyClamp forces a degenerate model whose optimum rounds
// to zero connections per app server and checks the clamp is audited.
func TestAuditConcurrencyClamp(t *testing.T) {
	t.Parallel()
	tomcat, _ := model.TableI()
	// A MySQL model with a tiny optimum: N_b ≈ sqrt(gamma/beta)·scale kept
	// below 0.5 per app server once split 1 db / 4 apps.
	mysql := model.Params{S0: 7.19e-3, Alpha: 5.04e-3, Beta: 0.9, Gamma: 1.0}
	if _, ok := mysql.OptimalConcurrency(); !ok {
		t.Skip("degenerate model has no optimum under this parameterization")
	}
	c, err := NewDCM(DCMConfig{
		Policy:      DefaultPolicy(),
		TomcatModel: tomcat,
		MySQLModel:  mysql,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := NewAuditLog()
	c.EnableAudit(log)
	alloc := model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 11, DBConnsPerAppServer: 4}
	c.Evaluate(view(0.5, 0.5, 4, 4, 1, 1, alloc))
	if log.Len() != 1 {
		t.Fatalf("decisions = %d", log.Len())
	}
	d := log.Decisions()[0]
	if findHold(d.Holds, CodeConcurrencyClamp, "") == nil {
		t.Fatalf("concurrency-clamp missing: %+v", d.Holds)
	}
	if d.Planned == nil || d.Planned.DBConnsPerAppServer != 1 {
		t.Fatalf("planned allocation not floored: %+v", d.Planned)
	}
}

// TestRenderPlanDiag covers the clamp-diagnostics renderer: periods with
// no Diag are skipped, clean planner periods are counted, and clamped
// periods list raw vs applied values with the clamp kinds.
func TestRenderPlanDiag(t *testing.T) {
	t.Parallel()
	log := NewAuditLog()
	// A hardware-only decision: no Diag, must not count as planned.
	log.add(Decision{At: 15 * time.Second, Controller: "ec2-autoscale"})
	// A clean planner period.
	log.add(Decision{
		At: 30 * time.Second, Controller: "dcm",
		Diag: &model.PlanDiag{RawAppThreads: 11, RawDBConnsPerApp: 4},
	})
	// A floored period: raw db rounded to 0, applied 1.
	log.add(Decision{
		At: 45 * time.Second, Controller: "dcm",
		Planned: &model.Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 11, DBConnsPerAppServer: 1},
		Diag:    &model.PlanDiag{RawAppThreads: 11, RawDBConnsPerApp: 0, DBClamped: true},
	})
	out := log.RenderPlanDiag()
	if !strings.Contains(out, "2 planned periods, 1 clamped") {
		t.Fatalf("counts wrong:\n%s", out)
	}
	if !strings.Contains(out, "raw app=11 db=0 -> applied app=11 db=1 (db-floor)") {
		t.Fatalf("clamped line wrong:\n%s", out)
	}
	if strings.Contains(out, "t=30s") {
		t.Fatalf("clean period listed as clamped:\n%s", out)
	}

	// A ceiling-capped period renders its kind too.
	log.add(Decision{
		At: 60 * time.Second, Controller: "dcm",
		Diag: &model.PlanDiag{RawAppThreads: 400, RawDBConnsPerApp: 90, AppCapped: true, DBCapped: true},
	})
	if out := log.RenderPlanDiag(); !strings.Contains(out, "(app-ceiling, db-ceiling)") {
		t.Fatalf("capped kinds missing:\n%s", out)
	}

	// Logs with no planner decisions at all render nothing.
	hw := NewAuditLog()
	hw.add(Decision{Controller: "ec2-autoscale"})
	if out := hw.RenderPlanDiag(); out != "" {
		t.Fatalf("hardware-only log rendered %q", out)
	}
	var nilLog *AuditLog
	if out := nilLog.RenderPlanDiag(); out != "" {
		t.Fatalf("nil log rendered %q", out)
	}
}

// TestAuditTopologyUnknown: before any samples land the planner cannot
// run, and the audit says so instead of silently skipping.
func TestAuditTopologyUnknown(t *testing.T) {
	t.Parallel()
	c := mustDCM(t)
	log := NewAuditLog()
	c.EnableAudit(log)
	c.Evaluate(SystemView{Tiers: map[string]TierStats{}})
	if log.Len() != 1 {
		t.Fatalf("decisions = %d", log.Len())
	}
	if findHold(log.Decisions()[0].Holds, CodeTopologyUnknown, "") == nil {
		t.Fatalf("topology-unknown missing: %+v", log.Decisions()[0].Holds)
	}
}

// TestAuditNilLogSafe: the nil *AuditLog is inert.
func TestAuditNilLogSafe(t *testing.T) {
	t.Parallel()
	var log *AuditLog
	log.add(Decision{})
	if log.Len() != 0 || log.Decisions() != nil || log.CodeCounts() != nil {
		t.Fatal("nil log not inert")
	}
	if err := log.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if log.RenderSummary() != "no decisions audited\n" {
		t.Fatalf("summary: %q", log.RenderSummary())
	}
}

// TestTargetTrackingAudit covers the second hardware-only controller's
// audit path: coded actions and holds, same header fields.
func TestTargetTrackingAudit(t *testing.T) {
	t.Parallel()
	c, err := NewTargetTracking(DefaultPolicy(), policy.Default().Target)
	if err != nil {
		t.Fatal(err)
	}
	log := NewAuditLog()
	c.EnableAudit(log)
	alloc := model.Allocation{}
	actions := c.Evaluate(view(0.9, 0.5, 1, 1, 1, 1, alloc))
	if a := findAction(actions, ActionScaleOut, ntier.TierApp); a == nil || a.Code != CodeTargetAbove {
		t.Fatalf("target-above action missing or uncoded: %+v", actions)
	}
	v := view(0.5, 0, 2, 2, 1, 1, alloc)
	ts := v.Tiers[ntier.TierDB]
	ts.NoData = true
	v.Tiers[ntier.TierDB] = ts
	c.Evaluate(v)
	if log.Len() != 2 {
		t.Fatalf("decisions = %d", log.Len())
	}
	if findHold(log.Decisions()[1].Holds, CodeNoDataHold, ntier.TierDB) == nil {
		t.Fatalf("nodata hold missing: %+v", log.Decisions()[1].Holds)
	}
}
