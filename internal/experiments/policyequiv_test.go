package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcm/internal/chaos"
	"dcm/internal/controller"
	"dcm/internal/model"
	"dcm/internal/policy"
)

// The declarative-policy equivalence suite: the digests below were
// captured on main immediately BEFORE the hand-coded controller and
// planner logic was re-expressed through internal/policy. Every figure
// grid, planner sweep, audit reason-code stream and full scenario result
// must still hash to the same value — the refactor is required to be a
// pure re-plumbing, bit for bit.

func equivDigest(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestPolicyDefaultMatchesHandCoded pins the checked-in policy file to the
// constructed Default() rule set, the one policy every controller and the
// planner read.
func TestPolicyDefaultMatchesHandCoded(t *testing.T) {
	t.Parallel()
	rules, err := policy.Load("../../policies/default.policy.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rules, policy.Default()) {
		t.Errorf("checked-in default.policy.json = %+v, want policy.Default() = %+v",
			rules, policy.Default())
	}
	// And the file itself is exactly what Marshal renders — no drift.
	data, err := policy.Default().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	disk, err := os.ReadFile("../../policies/default.policy.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, data) {
		t.Error("policies/default.policy.json differs from policy.Default().Marshal()")
	}
}

// TestPolicyEquivalenceFigures pins the fig2/fig4 experiment grids to
// their pre-refactor digests.
func TestPolicyEquivalenceFigures(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("simulation grids in -short mode")
	}
	t.Run("fig2a", func(t *testing.T) {
		t.Parallel()
		out, err := Fig2aMySQLSweep(7, []int{5, 36, 120}, 3*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const want = "525c5dd03ece8592a86b8d9de7d816784399abd4da32be205e91ecc1240a95ad"
		if got := equivDigest(t, out); got != want {
			t.Errorf("fig2a digest = %s, want %s", got, want)
		}
	})
	t.Run("fig2b", func(t *testing.T) {
		t.Parallel()
		out, err := Fig2bScaleOut(7, 3000, 20*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const want = "ca77893a72197875256bdf608ea8286fc6cf238e6f1d96914484219e3ea02cc8"
		if got := equivDigest(t, out); got != want {
			t.Errorf("fig2b digest = %s, want %s", got, want)
		}
	})
	t.Run("fig4a", func(t *testing.T) {
		t.Parallel()
		rows, _, err := Fig4a(7, []int{3000}, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const want = "d811971bfa259f9f9224639a042725a7ff2f0e7ee0c3c0c966f9e3a4ad41c0f7"
		if got := equivDigest(t, rows); got != want {
			t.Errorf("fig4a digest = %s, want %s", got, want)
		}
	})
	t.Run("fig4b", func(t *testing.T) {
		t.Parallel()
		rows, _, err := Fig4b(7, []int{3000}, 2*time.Second, nil)
		if err != nil {
			t.Fatal(err)
		}
		const want = "56eef48af56c44832852547051b335760d21b2981b01429f99ed88b1b285f7e5"
		if got := equivDigest(t, rows); got != want {
			t.Errorf("fig4b digest = %s, want %s", got, want)
		}
	})
}

// TestPolicyEquivalencePlannerGrid sweeps the planner across every
// topology, headroom and model pair (plus the degenerate clamp path) and
// pins the whole grid to its pre-refactor digest. A headroom or web-thread
// count of 0 in the grid stands for policy.Default()'s value, which is
// what the planner used to substitute for an unset input.
func TestPolicyEquivalencePlannerGrid(t *testing.T) {
	t.Parallel()
	type planOut struct {
		Alloc model.Allocation
		Diag  model.PlanDiag
		Err   string
	}
	var plans []planOut
	plan := func(in model.AllocationInput, rules policy.AllocationRules) {
		alloc, diag, err := model.PlanAllocation(in, rules)
		out := planOut{Alloc: alloc, Diag: diag}
		if err != nil {
			out.Err = err.Error()
		}
		plans = append(plans, out)
	}
	defaults := policy.Default().Allocation
	tomcatT, mysqlT := model.TableI()
	tomcatF, mysqlF := TrainedModels()
	for _, pair := range [][2]model.Params{{tomcatT, mysqlT}, {tomcatF, mysqlF}} {
		for _, web := range []int{1, 2} {
			for _, app := range []int{1, 2, 3, 5, 10} {
				for _, db := range []int{1, 2, 4} {
					for _, hr := range []float64{0, 0.5, 1, 1.3, 2} {
						for _, wt := range []int{0, 500} {
							rules := defaults
							if hr != 0 {
								rules.Headroom = hr
							}
							if wt != 0 {
								rules.WebThreads = wt
							}
							plan(model.AllocationInput{
								Tomcat: pair[0], MySQL: pair[1],
								WebServers: web, AppServers: app, DBServers: db,
							}, rules)
						}
					}
				}
			}
		}
	}
	// Degenerate models whose optimum rounds below 1 (clamp path).
	degenerate := model.Params{S0: 1e-3, Alpha: 9.9e-4, Beta: 1e-2, Gamma: 1}
	for _, app := range []int{1, 4} {
		plan(model.AllocationInput{
			Tomcat: degenerate, MySQL: degenerate,
			WebServers: 1, AppServers: app, DBServers: 1,
		}, defaults)
	}
	const want = "a10083733a284d13308f6d44efb4a7411e57126547984ce434b83fae760b242a"
	if got := equivDigest(t, plans); got != want {
		t.Errorf("planner grid digest = %s, want %s", got, want)
	}
}

// TestPolicyEquivalenceAuditCodes pins each controller's full audit
// reason-code stream on the reference scenario to its pre-refactor digest:
// the policy evaluators must emit exactly the decisions (and the explicit
// holds) the hand-coded controllers did, in the same order.
func TestPolicyEquivalenceAuditCodes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full scenario runs in -short mode")
	}
	wants := map[ControllerKind]struct {
		count  int
		digest string
	}{
		ControllerDCM:            {126, "fdc18789d940d84d8858b76d6941d9eb35bf4165c8743d9b5ba284d319c7771a"},
		ControllerEC2:            {84, "ca4121e0f2dea4077daf31c1e99b3f7417f1e1cc382398dbed3d2cceb7c0f6bb"},
		ControllerTargetTracking: {84, "7e81b942a6857b69a493fac08a65c8a49f9eaa336b55a108f264b50fa73605ad"},
	}
	for kind, want := range wants {
		kind, want := kind, want
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			res, err := RunScenario(ScenarioConfig{Seed: 42, Kind: kind, Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			var codes []string
			for _, d := range res.Decisions {
				for _, a := range d.Actions {
					codes = append(codes, string(a.Code))
				}
				for _, h := range d.Holds {
					codes = append(codes, string(h.Code))
				}
			}
			if len(codes) != want.count {
				t.Errorf("code count = %d, want %d", len(codes), want.count)
			}
			sum := sha256.Sum256([]byte(strings.Join(codes, "\n")))
			if got := hex.EncodeToString(sum[:]); got != want.digest {
				t.Errorf("code-stream digest = %s, want %s", got, want.digest)
			}
		})
	}
}

// TestPolicyEquivalenceScenarios pins the full marshalled ScenarioResult
// of the reference runs, and requires a run driven by the declarative
// default rules (both constructed and loaded from the checked-in file) to
// be byte-identical to one with no rules at all.
func TestPolicyEquivalenceScenarios(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full scenario runs in -short mode")
	}
	wants := map[ControllerKind]string{
		ControllerDCM:            "2ff5bb93012bba00bdc920ab13ae08f80edf81f3844470741ad5ee81483dc929",
		ControllerEC2:            "7fe679ec01da5f80567c5128dbe3c5d34bb9d4bea52f324eb6a69d97c8760dc9",
		ControllerTargetTracking: "eaf91d4148c078afd083a81e581ad41073c3a78e49269286b1358e0ea65479f2",
	}
	fromFile, err := policy.Load("../../policies/default.policy.json")
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range wants {
		kind, want := kind, want
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			plain, err := RunScenario(ScenarioConfig{Seed: 42, Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			plainJSON, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(plainJSON)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("scenario digest = %s, want %s", got, want)
			}
			for name, rules := range map[string]policy.Rules{
				"constructed": policy.Default(),
				"from-file":   fromFile,
			} {
				r := rules
				ruled, err := RunScenario(ScenarioConfig{Seed: 42, Kind: kind, Rules: &r})
				if err != nil {
					t.Fatal(err)
				}
				ruledJSON, err := json.Marshal(ruled)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plainJSON, ruledJSON) {
					t.Errorf("%s: rules-driven run differs from plain run", name)
				}
			}
		})
	}
}

// TestAuditLogDigestPins pins the sha256 of every controller's full JSONL
// audit log — the views, action and hold codes, reason strings and hold
// details, in order — on the reference scenario, and of three controllers
// under the bundled kitchen-sink chaos schedule (crashes, blackouts and
// partitions drive the re-provisioning, blackout-hold and clamp paths).
// The VM-level scaling rules must reproduce every byte of these logs.
func TestAuditLogDigestPins(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("full scenario runs in -short mode")
	}
	sched, err := chaos.Builtin("kitchen-sink")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind   ControllerKind
		chaos  bool
		digest string
	}{
		{ControllerDCM, false, "d275bedd58252ef1880c60a60abc4e61384f3e345c5f254e2d99a73783154bba"},
		{ControllerEC2, false, "c5edbabff550ad8bb2463fb42ae67b51daadaa3e74ad89f6e35972ae7b43cbbd"},
		{ControllerDCMSoftOnly, false, "94130c042e2d05d1ec10849d65655d8057f85ef5d512b00c5a562907328e89f0"},
		{ControllerNone, false, "b5c34154ad61a1a3e1ebe49ad17266c179a5c7e356c8672c8357b6d18b5a80ba"},
		{ControllerDCMPredictive, false, "d7b314484eec342a802d795514a45bad81ac87787a0fdaa2fc93d20337034a25"},
		{ControllerEC2Predictive, false, "c74725233d27e884e106f5fd147abbac07302b1d6a78be1ad2e9a2845e0c5678"},
		{ControllerTargetTracking, false, "de817f29f078185e26768f36ee9a625cea68f71cff55459043ca58105ebe8403"},
		{ControllerEC2, true, "698cd78b1762dea04d8bcf2d329b3a0e919d862eb3247283756fe49375518227"},
		{ControllerDCMPredictive, true, "0832c8f52eff82a62a1f32bf9a33103927bccf60110c414c8ee18dbcfc7eb5de"},
		{ControllerTargetTracking, true, "8a9529076e67d4c31ca978c03fc5180ff9daefdc38ba942ad6c87f342c806e64"},
	}
	codes := make([]map[controller.ReasonCode]bool, len(cases))
	t.Run("runs", func(t *testing.T) {
		for i, c := range cases {
			i, c := i, c
			name := string(c.kind)
			if c.chaos {
				name += "/kitchen-sink"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := ScenarioConfig{Seed: 42, Kind: c.kind, Audit: true}
				if c.chaos {
					cfg.Chaos = &sched
				}
				res, err := RunScenario(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := res.DecisionLog().WriteJSONL(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != c.digest {
					t.Errorf("audit-log digest = %s, want %s", got, c.digest)
				}
				seen := map[controller.ReasonCode]bool{}
				for _, cc := range res.DecisionLog().CodeCounts() {
					seen[cc.Code] = true
				}
				codes[i] = seen
			})
		}
	})
	for _, want := range []controller.ReasonCode{
		controller.CodeCrashReprovision, controller.CodeNoDataHold,
		controller.CodeLaunchInFlight, controller.CodeCPUHigh,
		controller.CodeAwaitingLow, controller.CodeCPULowSustained,
		controller.CodeTargetAbove,
	} {
		found := false
		for _, seen := range codes {
			found = found || seen[want]
		}
		if !found {
			t.Errorf("no pinned audit log contains %s", want)
		}
	}
}
