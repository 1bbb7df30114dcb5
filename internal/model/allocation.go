package model

import (
	"fmt"
	"math"

	"dcm/internal/policy"
)

// TableI returns the paper's published model parameters (Table I), used as
// the default calibration of the simulated Tomcat and MySQL servers and as
// ground truth for model-recovery tests.
//
//	           Tomcat     MySQL
//	S0         2.84e-02   7.19e-03
//	alpha      9.87e-03   5.04e-03
//	beta       4.54e-05   1.65e-06
//	gamma      11.03      4.45
func TableI() (tomcat, mysql Params) {
	tomcat = Params{S0: 2.84e-2, Alpha: 9.87e-3, Beta: 4.54e-5, Gamma: 11.03}
	mysql = Params{S0: 7.19e-3, Alpha: 5.04e-3, Beta: 1.65e-6, Gamma: 4.45}
	return tomcat, mysql
}

// AllocationInput describes the current hardware configuration and the
// trained tier models from which DCM derives soft-resource allocations.
type AllocationInput struct {
	// Tomcat and MySQL are the trained concurrency models of the two
	// concurrency-sensitive tiers.
	Tomcat, MySQL Params
	// WebServers, AppServers, DBServers are the current #W/#A/#D.
	WebServers, AppServers, DBServers int
}

// Allocation is a complete soft-resource plan: the #W_T/#A_T/#A_C setting
// of §II-A, expressed per server.
type Allocation struct {
	// WebThreadsPerServer is the Apache thread pool size per web server.
	WebThreadsPerServer int `json:"webThreadsPerServer"`
	// AppThreadsPerServer is the Tomcat thread pool (STP) size per app
	// server: the APP-agent's first control knob (§IV-B).
	AppThreadsPerServer int `json:"appThreadsPerServer"`
	// DBConnsPerAppServer is the Tomcat DB connection pool size per app
	// server: the APP-agent's second control knob, which bounds MySQL's
	// request-processing concurrency from upstream (§IV-B).
	DBConnsPerAppServer int `json:"dbConnsPerAppServer"`
}

// String renders the allocation in the paper's #W_T/#A_T/#A_C notation.
func (a Allocation) String() string {
	return fmt.Sprintf("%d/%d/%d",
		a.WebThreadsPerServer, a.AppThreadsPerServer, a.DBConnsPerAppServer)
}

// PlanDiag reports how the planner arrived at an allocation — in
// particular whether either concurrency knob was clamped to a floor or
// ceiling, which the decision audit log surfaces as an explainable
// "concurrency-clamp" condition (a model whose optimum rounds to zero
// pools, usually a degenerate online fit).
type PlanDiag struct {
	// RawAppThreads and RawDBConnsPerApp are the pre-clamp planner outputs.
	RawAppThreads    int `json:"rawAppThreads"`
	RawDBConnsPerApp int `json:"rawDBConnsPerApp"`
	// AppClamped / DBClamped report that the knob was raised to the
	// concurrency floor.
	AppClamped bool `json:"appClamped,omitempty"`
	DBClamped  bool `json:"dbClamped,omitempty"`
	// AppCapped / DBCapped report that the knob was lowered to the
	// concurrency ceiling (only possible under rules with caps set).
	AppCapped bool `json:"appCapped,omitempty"`
	DBCapped  bool `json:"dbCapped,omitempty"`
}

// PlanAllocation computes the near-optimal soft-resource allocation for the
// given hardware configuration under the planner rules:
//
//   - each Tomcat's thread pool is set to N_b(Tomcat)·headroom, so the tier
//     processes at its per-server optimum;
//   - the Tomcat DB connection pools are sized so the *total* concurrency
//     reaching the MySQL tier is N_b(MySQL)·headroom·K_db, split evenly
//     across the K_app Tomcats (the "each Tomcat shares half of the optimal
//     connection pool size" rule behind the 1000/100/18 setting in
//     Fig. 4(b));
//   - each knob is clamped into [floor, cap], and the diagnostics report
//     which clamps fired.
//
// Invalid rules are rejected with an error wrapping policy.ErrBadRules.
func PlanAllocation(in AllocationInput, rules policy.AllocationRules) (Allocation, PlanDiag, error) {
	if in.AppServers < 1 || in.DBServers < 1 || in.WebServers < 1 {
		return Allocation{}, PlanDiag{}, fmt.Errorf("model: invalid topology %d/%d/%d",
			in.WebServers, in.AppServers, in.DBServers)
	}
	if err := rules.Validate(); err != nil {
		return Allocation{}, PlanDiag{}, err
	}

	appN, ok := in.Tomcat.OptimalConcurrency()
	if !ok {
		return Allocation{}, PlanDiag{}, fmt.Errorf("model: tomcat model: %w", ErrNoOptimum)
	}
	dbN, ok := in.MySQL.OptimalConcurrency()
	if !ok {
		return Allocation{}, PlanDiag{}, fmt.Errorf("model: mysql model: %w", ErrNoOptimum)
	}

	appThreads := int(math.Round(appN * rules.Headroom))
	dbTotal := dbN * rules.Headroom * float64(in.DBServers)
	dbPerApp := int(math.Round(dbTotal / float64(in.AppServers)))

	diag := PlanDiag{
		RawAppThreads:    appThreads,
		RawDBConnsPerApp: dbPerApp,
		AppClamped:       appThreads < rules.AppThreadsFloor,
		DBClamped:        dbPerApp < rules.DBConnsFloor,
	}
	appThreads = max(rules.AppThreadsFloor, appThreads)
	dbPerApp = max(rules.DBConnsFloor, dbPerApp)
	if rules.AppThreadsCap > 0 && appThreads > rules.AppThreadsCap {
		appThreads = rules.AppThreadsCap
		diag.AppCapped = true
	}
	if rules.DBConnsCap > 0 && dbPerApp > rules.DBConnsCap {
		dbPerApp = rules.DBConnsCap
		diag.DBCapped = true
	}
	return Allocation{
		WebThreadsPerServer: rules.WebThreads,
		AppThreadsPerServer: appThreads,
		DBConnsPerAppServer: dbPerApp,
	}, diag, nil
}
