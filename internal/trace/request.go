package trace

// Request-level tracing: a RequestTracer records one event per tier hop of
// each request — arrival, queue enter/exit, connection-pool wait/grant,
// service start/end — keyed by a request ID the workload generator assigns
// at injection. The recorded stream exports as JSONL for offline analysis
// and folds into a per-tier latency breakdown for reports.
//
// The tracer is built to be free when unused: a nil *RequestTracer is a
// valid receiver for every Record* method and does nothing, so the hot
// paths in server, connpool and graph pay one nil check and zero
// allocations when tracing is off. Like the rest of this package it is
// simulation-agnostic — timestamps are plain time.Duration offsets passed
// in by the caller.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"dcm/internal/metrics"
)

// EventKind identifies one step in a request's life.
type EventKind string

// The event vocabulary. One request produces an Arrive, then per tier hop
// a QueueEnter/QueueExit pair and a ServiceStart/ServiceEnd pair (the
// app tier adds PoolWait/PoolGrant pairs per database query), and finally
// a Done or Fail.
const (
	EventArrive       EventKind = "arrive"
	EventQueueEnter   EventKind = "queue-enter"
	EventQueueExit    EventKind = "queue-exit"
	EventPoolWait     EventKind = "pool-wait"
	EventPoolGrant    EventKind = "pool-grant"
	EventServiceStart EventKind = "service-start"
	EventServiceEnd   EventKind = "service-end"
	EventDone         EventKind = "done"
	EventFail         EventKind = "fail"
	// Resilience dispositions: a request can additionally record a deadline
	// expiry (in a queue, waiting on a pool, or mid-burst), a bounded-queue
	// rejection, a CoDel shed, or a breaker refusal at a tier boundary.
	EventTimeout     EventKind = "timeout"
	EventReject      EventKind = "reject"
	EventShed        EventKind = "shed"
	EventBreakerOpen EventKind = "breaker-open"
	// EventClass tags a request with its traffic class at injection; the
	// class name rides in the event's Class field. Class-free flows never
	// record it.
	EventClass EventKind = "class"
)

// Event is one recorded step of one request.
type Event struct {
	Req    uint64        `json:"req"`
	At     time.Duration `json:"at"`
	Kind   EventKind     `json:"kind"`
	Tier   string        `json:"tier,omitempty"`
	Server string        `json:"server,omitempty"`
	// Class is the request's traffic class, set on EventClass events only.
	Class string `json:"class,omitempty"`
}

// RequestTracer collects request events up to a configurable limit. All
// methods are nil-safe; a nil tracer records nothing. A RequestTracer must
// only be used from the simulation goroutine.
type RequestTracer struct {
	events  []Event
	limit   int
	dropped uint64
	nextReq uint64
}

// DefaultEventLimit bounds memory when the caller does not choose a limit:
// a full Fig. 5 run emits a few million events; 4M events ≈ 260 MB is the
// ceiling before events are dropped (and counted).
const DefaultEventLimit = 4 << 20

// NewRequestTracer returns a tracer retaining at most limit events
// (DefaultEventLimit when limit <= 0).
func NewRequestTracer(limit int) *RequestTracer {
	if limit <= 0 {
		limit = DefaultEventLimit
	}
	return &RequestTracer{limit: limit}
}

// Begin assigns the next request ID. IDs start at 1 so that ID 0 always
// means "untraced" in code that threads IDs through the tiers.
func (t *RequestTracer) Begin() uint64 {
	if t == nil {
		return 0
	}
	t.nextReq++
	return t.nextReq
}

// Record appends one event. Calls with req == 0 (untraced request) or on a
// nil tracer are no-ops; events past the limit are dropped and counted.
func (t *RequestTracer) Record(req uint64, kind EventKind, tier, server string, at time.Duration) {
	if t == nil || req == 0 {
		return
	}
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{Req: req, At: at, Kind: kind, Tier: tier, Server: server})
}

// RecordClass tags req with its traffic class. Like Record it is nil-safe
// and free for untraced requests; events past the limit are dropped and
// counted.
func (t *RequestTracer) RecordClass(req uint64, class string, at time.Duration) {
	if t == nil || req == 0 {
		return
	}
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{Req: req, At: at, Kind: EventClass, Class: class})
}

// Len returns the number of retained events.
func (t *RequestTracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped returns the number of events discarded after the limit was hit.
func (t *RequestTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// WriteJSONL writes one JSON object per line per event.
func (t *RequestTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.events {
		if err := enc.Encode(&t.events[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TierBreakdown aggregates where requests spent time within one tier.
type TierBreakdown struct {
	Tier      string          `json:"tier"`
	Requests  int             `json:"requests"`
	QueueWait metrics.Summary `json:"queueWait"` // seconds in the thread-pool queue
	PoolWait  metrics.Summary `json:"poolWait"`  // seconds waiting on the conn pool
	Service   metrics.Summary `json:"service"`   // seconds in service bursts
}

// Breakdown folds the event stream into per-tier latency summaries by
// pairing enter/exit, wait/grant and start/end events per request. Tiers
// are returned in deterministic (sorted) order. Unpaired events — a
// request cut off by the end of the run or by the event limit — are
// ignored.
func (t *RequestTracer) Breakdown() []TierBreakdown {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	type key struct {
		req  uint64
		tier string
	}
	type agg struct {
		queue   []float64
		pool    []float64
		service []float64
		reqs    map[uint64]struct{}
	}
	open := map[key]map[EventKind]time.Duration{} // pending open timestamps
	tiers := map[string]*agg{}
	tierOf := func(name string) *agg {
		a := tiers[name]
		if a == nil {
			a = &agg{reqs: map[uint64]struct{}{}}
			tiers[name] = a
		}
		return a
	}
	// An open PoolWait must not collide with a pending QueueEnter of the
	// same request/tier, so index pending opens by their opening kind.
	closes := map[EventKind]EventKind{
		EventQueueExit:  EventQueueEnter,
		EventPoolGrant:  EventPoolWait,
		EventServiceEnd: EventServiceStart,
	}
	for _, ev := range t.events {
		switch ev.Kind {
		case EventQueueEnter, EventPoolWait, EventServiceStart:
			k := key{ev.Req, ev.Tier}
			if open[k] == nil {
				open[k] = map[EventKind]time.Duration{}
			}
			open[k][ev.Kind] = ev.At
		case EventQueueExit, EventPoolGrant, EventServiceEnd:
			k := key{ev.Req, ev.Tier}
			opener := closes[ev.Kind]
			started, ok := open[k][opener]
			if !ok {
				continue
			}
			delete(open[k], opener)
			sec := (ev.At - started).Seconds()
			a := tierOf(ev.Tier)
			a.reqs[ev.Req] = struct{}{}
			switch ev.Kind {
			case EventQueueExit:
				a.queue = append(a.queue, sec)
			case EventPoolGrant:
				a.pool = append(a.pool, sec)
			case EventServiceEnd:
				a.service = append(a.service, sec)
			}
		}
	}
	names := make([]string, 0, len(tiers))
	for name := range tiers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]TierBreakdown, 0, len(names))
	for _, name := range names {
		a := tiers[name]
		out = append(out, TierBreakdown{
			Tier:      name,
			Requests:  len(a.reqs),
			QueueWait: metrics.Summarize(a.queue),
			PoolWait:  metrics.Summarize(a.pool),
			Service:   metrics.Summarize(a.service),
		})
	}
	return out
}

// RenderBreakdown draws the per-tier latency breakdown as a text table
// (all latencies in milliseconds).
func RenderBreakdown(bd []TierBreakdown) string {
	if len(bd) == 0 {
		return "no trace events recorded\n"
	}
	ms := func(s float64) string { return fmt.Sprintf("%.2f", s*1e3) }
	tb := metrics.NewTable("tier", "requests", "stage", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms")
	for _, b := range bd {
		stages := []struct {
			name string
			s    metrics.Summary
		}{
			{"queue", b.QueueWait},
			{"pool-wait", b.PoolWait},
			{"service", b.Service},
		}
		first := true
		for _, st := range stages {
			if st.s.Count == 0 {
				continue
			}
			tier, reqs := "", ""
			if first {
				tier, reqs = b.Tier, fmt.Sprintf("%d", b.Requests)
				first = false
			}
			tb.AddRow(tier, reqs, st.name, fmt.Sprintf("%d", st.s.Count),
				ms(st.s.Mean), ms(st.s.P50), ms(st.s.P95), ms(st.s.P99), ms(st.s.Max))
		}
	}
	var b strings.Builder
	b.WriteString("per-tier latency breakdown:\n")
	b.WriteString(tb.String())
	return b.String()
}
