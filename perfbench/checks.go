package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"dcm/internal/experiments"
)

// digestOf returns the sha256 of a runner result marshaled to JSON, with
// every field zeroed that is not a simulated statistic: wall-clock fields
// (GraphResult.Wall, MillionSmokeResult.Wall and EventsPerSec) and the
// observer-only fields a traced run adds (the decision audit, invariant
// violations and sweep counts, which are checked on their own). Two runs
// with the same digest simulated the same thing.
func digestOf(result any) string { return digest(result, true) }

// statsDigest is digestOf without the engine counters that the invariant
// checker's own sweep ticker moves (MillionSmokeResult.Events and
// PeakPending). The traced run is compared with the plain run on it.
func statsDigest(result any) string { return digest(result, false) }

func digest(result any, engineCounters bool) string {
	switch r := result.(type) {
	case *experiments.ScenarioResult:
		c := *r
		c.Decisions = nil
		c.InvariantViolations = nil
		result = &c
	case experiments.GraphResult:
		r.Wall = 0
		r.InvariantViolations = nil
		result = r
	case experiments.MillionSmokeResult:
		r.Wall = 0
		r.EventsPerSec = 0
		r.Sweeps = 0
		r.InvariantViolations = nil
		if !engineCounters {
			r.Events = 0
			r.PeakPending = 0
		}
		result = r
	}
	data, err := json.Marshal(result)
	if err != nil {
		// Every result type is plain data; marshaling cannot fail.
		panic(fmt.Sprintf("digest: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkScenario checks the identities a Fig. 5 result exposes. With
// resilience off there is no disposition taxonomy and no fault, so no
// request may fail, every per-second series must cover the same seconds,
// and the per-second completions cannot add up to more than the total.
func checkScenario(r *experiments.ScenarioResult) error {
	var errs []error
	if r.TotalCompleted == 0 {
		errs = append(errs, errors.New("no request completed"))
	}
	if r.TotalErrors != 0 {
		errs = append(errs, fmt.Errorf("%d requests failed with resilience off", r.TotalErrors))
	}
	if d := r.Dispositions; d != nil {
		if err := d.CheckConsistent(r.TotalCompleted, r.TotalErrors); err != nil {
			errs = append(errs, err)
		}
	}
	n := len(r.Seconds)
	for name, s := range map[string][]float64{
		"throughput": r.Throughput, "meanRT": r.MeanRTSec, "p95RT": r.P95RTSec,
	} {
		if len(s) != n {
			errs = append(errs, fmt.Errorf("%s series has %d samples, time axis %d", name, len(s), n))
		}
	}
	var sum float64
	for _, x := range r.Throughput {
		sum += x
	}
	if sum > float64(r.TotalCompleted) {
		errs = append(errs, fmt.Errorf("per-second completions sum to %.0f > %d completed", sum, r.TotalCompleted))
	}
	return errors.Join(errs...)
}

// checkGraph checks the graph result's conservation identities: the
// disposition taxonomy accounts for every finished request, no more
// requests finish than were accepted, every node's visit ledger balances,
// and every async spawn is done or still in flight.
func checkGraph(r experiments.GraphResult) error {
	var errs []error
	if err := r.Dispositions.CheckConsistent(r.Completed, r.Errors); err != nil {
		errs = append(errs, err)
	}
	if fin := r.Completed + r.Errors; fin > r.Scheduled {
		errs = append(errs, fmt.Errorf("%d requests finished > %d attempted", fin, r.Scheduled))
	}
	if r.Completed == 0 {
		errs = append(errs, errors.New("no request completed"))
	}
	for _, n := range r.Nodes {
		if got := n.Dispositions.Total() + uint64(n.InFlight); got != n.Started {
			errs = append(errs, fmt.Errorf("node %s: %d dispositions + in flight != %d started", n.Name, got, n.Started))
		}
	}
	if got := r.AsyncDone.Total() + uint64(r.AsyncInFlight); got != r.AsyncSpawned {
		errs = append(errs, fmt.Errorf("async: %d done + in flight != %d spawned", got, r.AsyncSpawned))
	}
	return errors.Join(errs...)
}

// checkMillion checks the smoke result: requests completed, each took at
// least one event, and the live population reached the trace's peak
// order of magnitude.
func checkMillion(r experiments.MillionSmokeResult) error {
	var errs []error
	if r.Completed == 0 {
		errs = append(errs, errors.New("no request completed"))
	}
	if r.Completed > r.Events {
		errs = append(errs, fmt.Errorf("%d completed > %d events", r.Completed, r.Events))
	}
	if r.PeakLive > r.PeakUsers || r.PeakLive < r.PeakUsers/2 {
		errs = append(errs, fmt.Errorf("peak live users %d, trace peak %d", r.PeakLive, r.PeakUsers))
	}
	return errors.Join(errs...)
}
