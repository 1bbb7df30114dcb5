package trace

import (
	"sort"
	"time"

	"dcm/internal/metrics"
)

// Used only by this package's tests; no production code calls these.

// ClassBreakdowns folds the event stream into per-class end-to-end
// summaries by pairing each class-tagged request's arrive event with its
// terminal done or fail event. Classes are returned in sorted order;
// untagged requests are ignored (the class-free flow records no class
// events).
func (t *RequestTracer) ClassBreakdowns() []ClassBreakdown {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	classOf := map[uint64]string{}
	arriveAt := map[uint64]time.Duration{}
	type agg struct {
		requests, completed, failed int
		rts                         []float64
	}
	classes := map[string]*agg{}
	for _, ev := range t.events {
		switch ev.Kind {
		case EventClass:
			classOf[ev.Req] = ev.Class
			a := classes[ev.Class]
			if a == nil {
				a = &agg{}
				classes[ev.Class] = a
			}
			a.requests++
		case EventArrive:
			arriveAt[ev.Req] = ev.At
		case EventDone, EventFail:
			name, ok := classOf[ev.Req]
			if !ok {
				continue
			}
			a := classes[name]
			if ev.Kind == EventDone {
				a.completed++
			} else {
				a.failed++
			}
			if start, ok := arriveAt[ev.Req]; ok {
				a.rts = append(a.rts, (ev.At - start).Seconds())
			}
		}
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ClassBreakdown, 0, len(names))
	for _, name := range names {
		a := classes[name]
		out = append(out, ClassBreakdown{
			Class:     name,
			Requests:  a.requests,
			Completed: a.completed,
			Failed:    a.failed,
			RT:        metrics.Summarize(a.rts),
		})
	}
	return out
}

// ClassBreakdown aggregates end-to-end outcomes of one traffic class.
type ClassBreakdown struct {
	Class     string `json:"class"`
	Requests  int    `json:"requests"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	// RT summarizes end-to-end response times (seconds) of requests that
	// reached a terminal done/fail event.
	RT metrics.Summary `json:"rt"`
}

// Events returns the retained events in recording order.
func (t *RequestTracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}
