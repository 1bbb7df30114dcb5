// Package invariant is a pluggable runtime checker for the structural
// laws the simulation must obey regardless of configuration: request
// conservation per tier (arrivals = completions + failed dispositions +
// in-flight), thread-pool and connection-pool accounting (grants =
// releases + leaks, never negative, waiter caps respected), event-time
// monotonicity and timer-generation legality in the event heap, and
// legality of circuit-breaker state transitions.
//
// A nil *Checker is the disabled state: every method is nil-safe and the
// instrumented components guard their checks behind a single pointer
// comparison, so runs without a checker execute the exact same event
// sequence (no extra rng draws, no extra events) and produce
// byte-identical results.
package invariant

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Rule names the structural law a violation broke. The set is small and
// closed so tests can assert on specific rules. The event core's own two
// rules, sim.RuleEventOrder and sim.RuleTimerGeneration, arrive through
// AttachEngine's hook as Rule values of the same names.
type Rule string

const (
	// RuleConservation: arrivals = completions + failed dispositions +
	// in-flight, at any instant and at drain.
	RuleConservation Rule = "conservation"
	// RulePoolAccounting: thread/connection pool grants = releases +
	// held (+ leaked), occupancy never negative, caps respected.
	RulePoolAccounting Rule = "pool-accounting"
	// RuleHeap: the 4-ary heap's structural self-check failed (heap
	// property, dead-entry accounting, free-list disjointness).
	RuleHeap Rule = "heap"
	// RuleBreakerTransition: a circuit breaker moved between states
	// along an edge the state machine does not allow.
	RuleBreakerTransition Rule = "breaker-transition"
	// RuleDeadline: a request was granted capacity after its deadline
	// already expired (expired waiters must fail, not proceed).
	RuleDeadline Rule = "deadline"
	// RuleMetrics: aggregate counters disagree with the disposition
	// taxonomy (e.g. DispositionCounts.OK != completion counter).
	RuleMetrics Rule = "metrics"
)

// Violation is one detected breach of a structural law, stamped with the
// simulated time and component where it was caught.
type Violation struct {
	At     time.Duration `json:"at"`
	Rule   Rule          `json:"rule"`
	Where  string        `json:"where"`
	Req    uint64        `json:"req,omitempty"`
	Detail string        `json:"detail"`
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.3fs [%s] %s: %s", v.At.Seconds(), v.Rule, v.Where, v.Detail)
	if v.Req != 0 {
		fmt.Fprintf(&b, " (req %d)", v.Req)
	}
	return b.String()
}

// maxRecorded bounds the stored violations; a corrupted run can trip a
// check on every event, and keeping millions of records helps nobody.
// Total() still counts every violation past the cap.
const maxRecorded = 256

// Checker collects violations. The zero value is not used: a nil
// *Checker means "disabled" and every method no-ops, while New returns
// an enabled checker. A single Checker may be shared by experiment
// points running on different goroutines (the parallel grid executors),
// so recording is mutex-protected.
type Checker struct {
	mu         sync.Mutex
	total      uint64
	violations []Violation
}

// New returns an enabled checker.
func New() *Checker { return &Checker{} }

// Violatef records a violation of rule at component `where`, stamped
// with simulated time at. req is an optional request id (0 = none).
// Nil-safe no-op.
func (c *Checker) Violatef(at time.Duration, rule Rule, where string, req uint64, format string, args ...any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total++
	if len(c.violations) >= maxRecorded {
		return
	}
	c.violations = append(c.violations, Violation{
		At: at, Rule: rule, Where: where, Req: req,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Check records err as a violation of rule; a nil err is a pass.
// It is the bridge for components exposing `CheckInvariant() error`.
func (c *Checker) Check(at time.Duration, rule Rule, where string, err error) {
	if c == nil || err == nil {
		return
	}
	c.Violatef(at, rule, where, 0, "%v", err)
}

// breakerEdges is the legal transition relation of the circuit-breaker
// state machine: trip, cooldown probe, probe success, probe failure.
var breakerEdges = map[[2]string]bool{
	{"closed", "open"}:      true,
	{"open", "half-open"}:   true,
	{"half-open", "closed"}: true,
	{"half-open", "open"}:   true,
}

// LegalBreakerTransition reports whether a breaker may move from one
// named state to another in a single step.
func LegalBreakerTransition(from, to string) bool {
	return breakerEdges[[2]string{from, to}]
}

// BreakerTransition validates one observed breaker state change and
// records a violation if the edge is not part of the state machine.
func (c *Checker) BreakerTransition(at time.Duration, where, from, to string) {
	if c == nil {
		return
	}
	if !LegalBreakerTransition(from, to) {
		c.Violatef(at, RuleBreakerTransition, where, 0, "illegal transition %s -> %s", from, to)
	}
}

// Total returns the number of violations detected, including any past
// the storage cap.
func (c *Checker) Total() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Violations returns a copy of the recorded violations; nil when clean,
// so it can be assigned to an `omitempty` result field without changing
// the marshaled bytes of a clean run.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Render formats violations one per line for reports and CLI output.
func Render(vs []Violation) string {
	if len(vs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range vs {
		b.WriteString("  ")
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}
