package experiments

import (
	"fmt"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/runner"
)

// Allocation labels a soft-resource setting under comparison.
type Allocation struct {
	// Label is the paper's #W_T/#A_T/#A_C notation.
	Label string `json:"label"`
	// AppThreads and DBConnsPerApp are the per-server values.
	AppThreads    int `json:"appThreads"`
	DBConnsPerApp int `json:"dbConnsPerApp"`
	// Optimal marks the model-predicted allocation.
	Optimal bool `json:"optimal"`
}

// Fig4Row is one workload level of Fig. 4: system throughput under each
// candidate allocation.
type Fig4Row struct {
	Users int `json:"users"`
	// Throughput maps allocation label to requests/s.
	Throughput map[string]float64 `json:"throughput"`
	// MeanRTms maps allocation label to mean response time.
	MeanRTms map[string]float64 `json:"meanRTms"`
}

// DefaultFig4Users sweeps the user population as Fig. 4 does.
func DefaultFig4Users() []int {
	return []int{200, 600, 1000, 1500, 2000, 2500, 3000}
}

// Fig4aAllocations returns the five representative Tomcat thread-pool
// allocations of Fig. 4(a), including the model's optimum (1000/20/80) and
// the default (1000/100/80).
func Fig4aAllocations() []Allocation {
	return []Allocation{
		{Label: "1000/2/80", AppThreads: 2, DBConnsPerApp: 80},
		{Label: "1000/10/80", AppThreads: 10, DBConnsPerApp: 80},
		{Label: "1000/20/80", AppThreads: 20, DBConnsPerApp: 80, Optimal: true},
		{Label: "1000/100/80", AppThreads: 100, DBConnsPerApp: 80},
		{Label: "1000/400/80", AppThreads: 400, DBConnsPerApp: 80},
	}
}

// Fig4bAllocations returns the five representative DB-connection-pool
// allocations of Fig. 4(b) for the 1/2/1 system: the optimum gives each of
// the two Tomcats half of the MySQL tier's optimal concurrency
// (1000/100/18), and the default keeps 80 connections per Tomcat.
func Fig4bAllocations() []Allocation {
	return []Allocation{
		{Label: "1000/100/2", AppThreads: 100, DBConnsPerApp: 2},
		{Label: "1000/100/4", AppThreads: 100, DBConnsPerApp: 4},
		{Label: "1000/100/18", AppThreads: 100, DBConnsPerApp: 18, Optimal: true},
		{Label: "1000/100/40", AppThreads: 100, DBConnsPerApp: 40},
		{Label: "1000/100/80", AppThreads: 100, DBConnsPerApp: 80},
	}
}

// Fig4Validation measures the RUBBoS-client workload (3 s think time)
// against each allocation at each user level. appServers selects the
// topology: 1 reproduces Fig. 4(a), 2 reproduces Fig. 4(b). chk, when
// non-nil, is the runtime invariant checker attached to every grid cell's
// app and engine (it is mutex-protected, so sharing it across the
// fanned-out cells is safe).
func Fig4Validation(seed uint64, appServers int, allocations []Allocation, users []int, measure time.Duration, chk *invariant.Checker) ([]Fig4Row, error) {
	if appServers < 1 {
		return nil, fmt.Errorf("experiments: fig4: app servers %d", appServers)
	}
	if len(users) == 0 {
		users = DefaultFig4Users()
	}
	if measure <= 0 {
		measure = 20 * time.Second
	}
	const think = 3 * time.Second
	warmup := 10 * time.Second

	// Flatten the (users × allocations) grid into one batch of independent
	// steady-state runs and fan it across the worker pool; the cells come
	// back in input order and are reassembled into rows, so the result is
	// identical to the nested serial loops.
	type cell struct {
		users int
		alloc Allocation
	}
	cells := make([]cell, 0, len(users)*len(allocations))
	for _, u := range users {
		for _, alloc := range allocations {
			cells = append(cells, cell{users: u, alloc: alloc})
		}
	}
	measurements, err := runner.Map(cells, 0, func(_ int, c cell) (Measurement, error) {
		cfg := ntier.DefaultConfig()
		cfg.AppServers = appServers
		cfg.AppThreads = c.alloc.AppThreads
		cfg.DBConnsPerApp = c.alloc.DBConnsPerApp
		m, err := SteadyState(seed, cfg, c.users, think, warmup, measure, chk)
		if err != nil {
			return Measurement{}, fmt.Errorf("experiments: fig4 %s at %d users: %w", c.alloc.Label, c.users, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, 0, len(users))
	for i, u := range users {
		row := Fig4Row{
			Users:      u,
			Throughput: make(map[string]float64, len(allocations)),
			MeanRTms:   make(map[string]float64, len(allocations)),
		}
		for j, alloc := range allocations {
			m := measurements[i*len(allocations)+j]
			row.Throughput[alloc.Label] = m.Throughput
			row.MeanRTms[alloc.Label] = m.RT.Mean * 1000
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4a runs the Fig. 4(a) validation (1/1/1, Tomcat thread pool sweep);
// chk (may be nil) is passed to Fig4Validation.
func Fig4a(seed uint64, users []int, measure time.Duration, chk *invariant.Checker) ([]Fig4Row, []Allocation, error) {
	allocs := Fig4aAllocations()
	rows, err := Fig4Validation(seed, 1, allocs, users, measure, chk)
	return rows, allocs, err
}

// Fig4b runs the Fig. 4(b) validation (1/2/1, DB connection pool sweep);
// chk (may be nil) is passed to Fig4Validation.
func Fig4b(seed uint64, users []int, measure time.Duration, chk *invariant.Checker) ([]Fig4Row, []Allocation, error) {
	allocs := Fig4bAllocations()
	rows, err := Fig4Validation(seed, 2, allocs, users, measure, chk)
	return rows, allocs, err
}

// RenderFig4 renders the validation as an aligned table.
func RenderFig4(rows []Fig4Row, allocs []Allocation) string {
	header := make([]string, 0, len(allocs)+1)
	header = append(header, "users")
	for _, a := range allocs {
		label := a.Label
		if a.Optimal {
			label += " (opt)"
		}
		header = append(header, label)
	}
	tb := metrics.NewTable(header...)
	for _, r := range rows {
		cells := make([]string, 0, len(allocs)+1)
		cells = append(cells, fmt.Sprintf("%d", r.Users))
		for _, a := range allocs {
			cells = append(cells, fmtF(r.Throughput[a.Label], 1))
		}
		tb.AddRow(cells...)
	}
	return tb.String()
}
