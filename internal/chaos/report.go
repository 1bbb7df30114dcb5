package chaos

import (
	"fmt"
	"strings"

	"dcm/internal/metrics"
)

// The recovery analysis's parameters. A fault's pre-fault throughput
// baseline averages over baselineWindowSec before it; the fault counts as
// recovered once the mean throughput over a trailing recoveryWindowSec
// clears recoveryFraction of that baseline. A second whose mean response
// time exceeds sloRTSeconds (the knee the paper's Fig. 5 commentary treats
// as unacceptable), or in which any request failed, counts toward the SLO
// violation.
const (
	baselineWindowSec = 30
	recoveryWindowSec = 5
	recoveryFraction  = 0.9
	sloRTSeconds      = 1
)

// Input is the measured run a Report is computed from: aligned per-second
// series (Seconds is the time axis; gaps in it are monitoring blackouts;
// Errors counts each second's failed requests) plus the totals the
// simulator counted directly.
type Input struct {
	Schedule        Schedule
	Injections      []Injection
	Seconds         []float64
	Throughput      []float64
	MeanRTSec       []float64
	Errors          []float64
	ErroredRequests uint64
}

// FaultReport is the recovery verdict for one fault.
type FaultReport struct {
	Fault Fault `json:"fault"`
	// BaselineThroughput is the mean throughput over the window before
	// injection.
	BaselineThroughput float64 `json:"baselineThroughput"`
	// Impacted reports whether throughput measurably dipped below the
	// recovery bar after injection.
	Impacted bool `json:"impacted"`
	// Recovered reports whether throughput returned to the bar before the
	// run ended (vacuously true when the fault had no measurable impact).
	Recovered bool `json:"recovered"`
	// TTRSeconds is the time from injection until the trailing-window
	// throughput first re-cleared the bar after the dip; 0 when the fault
	// had no measurable impact, -1 when the run ended still degraded.
	TTRSeconds float64 `json:"ttrSeconds"`
}

// Report aggregates a chaos run.
type Report struct {
	Scenario string        `json:"scenario"`
	Faults   []FaultReport `json:"faults"`
	// SLOViolationSeconds is how long the system's mean response time
	// exceeded the SLO or requests failed: a failed request is a missed
	// SLO, and a tier with nothing left serving completes nothing whose
	// response time could show it.
	SLOViolationSeconds float64 `json:"sloViolationSeconds"`
	// BlindSeconds is how long the monitoring pipeline published nothing
	// (gaps in the per-second series).
	BlindSeconds float64 `json:"blindSeconds"`
	// ErroredRequests counts requests the application failed — counted at
	// the injection point, so blackouts cannot hide them.
	ErroredRequests uint64      `json:"erroredRequests"`
	Injections      []Injection `json:"injections,omitempty"`
}

// Analyze computes the chaos report for a finished run.
func Analyze(in Input) Report {
	rep := Report{
		Scenario:        in.Schedule.Name,
		ErroredRequests: in.ErroredRequests,
		Injections:      in.Injections,
	}
	for _, f := range in.Schedule.sorted() {
		rep.Faults = append(rep.Faults, analyzeFault(f, in))
	}
	rep.SLOViolationSeconds = sloViolation(in)
	rep.BlindSeconds = blindSeconds(in.Seconds)
	return rep
}

// windowMean averages v over axis points in [from, to).
func windowMean(axis, v []float64, from, to float64) (float64, bool) {
	sum, n := 0.0, 0
	for i, t := range axis {
		if t >= from && t < to && i < len(v) {
			sum += v[i]
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// analyzeFault computes one fault's baseline/impact/recovery verdict.
func analyzeFault(f Fault, in Input) FaultReport {
	at := f.At.Seconds()
	fr := FaultReport{Fault: f}
	baseline, ok := windowMean(in.Seconds, in.Throughput, at-baselineWindowSec, at)
	if !ok || baseline <= 0 {
		// No pre-fault traffic to compare against: nothing measurable.
		fr.Recovered = true
		return fr
	}
	fr.BaselineThroughput = baseline
	bar := recoveryFraction * baseline

	// Walk forward from the injection: the first trailing window below the
	// bar marks impact, the first window back at the bar after that marks
	// recovery.
	for _, t := range in.Seconds {
		if t < at {
			continue
		}
		mean, ok := windowMean(in.Seconds, in.Throughput, t-recoveryWindowSec, t+1e-9)
		if !ok {
			continue
		}
		if !fr.Impacted {
			if mean < bar {
				fr.Impacted = true
			}
			continue
		}
		if mean >= bar {
			fr.Recovered = true
			fr.TTRSeconds = t - at
			return fr
		}
	}
	if !fr.Impacted {
		fr.Recovered = true // never dipped
		return fr
	}
	fr.TTRSeconds = -1 // run ended still degraded
	return fr
}

// sloViolation sums the seconds whose mean RT exceeded the SLO or that
// failed any request.
func sloViolation(in Input) float64 {
	spacing := axisSpacing(in.Seconds)
	total := 0.0
	for i := range in.Seconds {
		slow := i < len(in.MeanRTSec) && in.MeanRTSec[i] > sloRTSeconds
		failed := i < len(in.Errors) && in.Errors[i] > 0
		if slow || failed {
			total += spacing
		}
	}
	return total
}

// blindSeconds sums the axis gaps larger than the nominal spacing —
// stretches where monitoring published nothing.
func blindSeconds(axis []float64) float64 {
	spacing := axisSpacing(axis)
	total := 0.0
	for i := 1; i < len(axis); i++ {
		if gap := axis[i] - axis[i-1]; gap > 1.5*spacing {
			total += gap - spacing
		}
	}
	return total
}

// axisSpacing estimates the nominal sample spacing (the smallest positive
// gap; 1 s when the axis is too short to tell).
func axisSpacing(axis []float64) float64 {
	spacing := 0.0
	for i := 1; i < len(axis); i++ {
		if gap := axis[i] - axis[i-1]; gap > 0 && (spacing == 0 || gap < spacing) {
			spacing = gap
		}
	}
	if spacing == 0 {
		return 1
	}
	return spacing
}

// Render formats the report as a text table for CLI output.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos report: %s\n\n", r.Scenario)
	t := metrics.NewTable("fault", "baseline tp", "impacted", "recovered", "TTR")
	for _, fr := range r.Faults {
		ttr := "n/a"
		switch {
		case fr.TTRSeconds > 0:
			ttr = fmt.Sprintf("%.0fs", fr.TTRSeconds)
		case fr.TTRSeconds < 0:
			ttr = "never"
		case fr.Impacted:
			ttr = "0s"
		}
		t.AddRow(
			fr.Fault.String(),
			fmt.Sprintf("%.0f req/s", fr.BaselineThroughput),
			fmt.Sprintf("%v", fr.Impacted),
			fmt.Sprintf("%v", fr.Recovered),
			ttr,
		)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nSLO violation: %.0f s   monitoring blind: %.0f s   errored requests: %d\n",
		r.SLOViolationSeconds, r.BlindSeconds, r.ErroredRequests)
	return b.String()
}
