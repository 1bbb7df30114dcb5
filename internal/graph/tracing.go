package graph

import (
	"fmt"
	"strings"
	"time"
)

// Span is one stage of a traced request's journey through the graph.
type Span struct {
	// Stage is the node name for unpooled hops ("web", "app"), or a
	// per-call label for pooled and parallel hops ("db-query-<i>",
	// "search-call-<i>").
	Stage string `json:"stage"`
	// Server is the name of the member that handled the stage.
	Server string `json:"server"`
	// Start is the stage's start offset from the request's injection.
	Start time.Duration `json:"start"`
	// Duration is the stage's total time (queueing included).
	Duration time.Duration `json:"duration"`
}

// RequestTrace is the full record of one traced request.
type RequestTrace struct {
	// ID numbers traced requests from 1 in injection order.
	ID int `json:"id"`
	// InjectedAt is the virtual time the request entered the system.
	InjectedAt time.Duration `json:"injectedAt"`
	// Total is the end-to-end response time.
	Total time.Duration `json:"total"`
	// OK reports whether the request completed successfully.
	OK bool `json:"ok"`
	// Class is the request's class ("" for the classless flow).
	Class string `json:"class,omitempty"`
	// Spans are the per-stage records in execution order.
	Spans []Span `json:"spans"`
}

// String renders the trace as an indented waterfall.
func (rt RequestTrace) String() string {
	var b strings.Builder
	status := "ok"
	if !rt.OK {
		status = "FAILED"
	}
	name := rt.Class
	if name == "" {
		name = "request"
	}
	fmt.Fprintf(&b, "#%d %s at t=%.3fs: %.2fms %s\n",
		rt.ID, name, rt.InjectedAt.Seconds(), float64(rt.Total.Microseconds())/1000, status)
	for _, sp := range rt.Spans {
		offset := int(sp.Start.Seconds() / rt.Total.Seconds() * 30)
		if rt.Total <= 0 {
			offset = 0
		}
		if offset > 30 {
			offset = 30
		}
		fmt.Fprintf(&b, "  %-12s %-8s %s%s %.2fms\n",
			sp.Stage, sp.Server, strings.Repeat(" ", offset), "▕",
			float64(sp.Duration.Microseconds())/1000)
	}
	return b.String()
}

// TraceRequests arms request tracing: the next n injected requests record
// a full per-stage span log, retrievable with Traces. Tracing is cheap but
// not free; it is meant for debugging and demos, not for the hot path of
// large experiments. Calling TraceRequests again resets the buffer.
func (a *App) TraceRequests(n int) {
	if n < 0 {
		n = 0
	}
	a.traceRemaining = n
	a.traces = a.traces[:0]
}

// Traces returns the captured request traces so far. Traces of requests
// still in flight have OK == false and Total == 0 until they finish.
func (a *App) Traces() []RequestTrace {
	out := make([]RequestTrace, len(a.traces))
	for i, tr := range a.traces {
		out[i] = *tr
	}
	return out
}

// beginTrace claims a trace slot for a new request, returning nil when
// tracing is disarmed.
func (a *App) beginTrace(cls *Class) *RequestTrace {
	if a.traceRemaining <= 0 {
		return nil
	}
	a.traceRemaining--
	tr := &RequestTrace{
		ID:         len(a.traces) + 1,
		InjectedAt: a.eng.Now(),
	}
	if cls != nil {
		tr.Class = cls.Name
	}
	a.traces = append(a.traces, tr)
	return tr
}
