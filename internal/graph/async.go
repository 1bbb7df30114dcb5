package graph

import (
	"dcm/internal/metrics"
)

// Async fire-and-forget edges: the upstream visit publishes one message
// per visit to the edge's bus topic and continues immediately — the
// downstream work happens on its own clock and never affects the parent
// request's disposition. Deliveries are conserved in a separate ledger
// (AsyncLedger) so the whole-graph sweep still balances.

// asyncMsg is the payload published per fire-and-forget delivery. The
// bus carries a pointer into a chunk of these (App.asyncMsgs), so a
// publish boxes nothing of its own.
type asyncMsg struct {
	// Profile names the demand profile the delivery runs under ("" = the
	// topology defaults).
	Profile string `json:"profile,omitempty"`
	// Seq is the spawn sequence number (1-based, per app).
	Seq uint64 `json:"seq"`
}

// fireAsync publishes the edge's visits and schedules their deliveries.
// The publish is durable-ordered through internal/bus — the consumer
// drains the topic in offset order — and the delivery itself is a normal
// node visit with no deadline and no upstream to answer to. Each
// delivery runs under a request record of its own.
func (a *App) fireAsync(e *edge, visits int, prof *resolvedProfile) {
	for i := 0; i < visits; i++ {
		a.asyncSpawned++
		a.asyncInFlight++
		if _, err := a.bs.Publish(e.topic, e.key, a.newAsyncMsg(prof.name)); err != nil {
			// Topic was created at build time; a failed publish means the
			// bus was closed under us. Account the delivery as errored so
			// the async ledger still conserves.
			a.asyncInFlight--
			a.asyncDisp.Observe(metrics.DispositionError)
			continue
		}
		r := a.newRequest()
		r.async = e
		r.prof = prof
		if r.deliverFn == nil {
			r.deliverFn = r.deliver
		}
		a.eng.Schedule(0, r.deliverFn)
	}
}

// asyncMsgChunk is how many payloads one App.asyncMsgs chunk holds.
const asyncMsgChunk = 256

// newAsyncMsg records the payload of spawn asyncSpawned in the current
// chunk, starting a new chunk when it is full. Published payloads are
// never written again, and the topic log keeps its chunks alive.
func (a *App) newAsyncMsg(profile string) *asyncMsg {
	if len(a.asyncMsgs) == cap(a.asyncMsgs) {
		a.asyncMsgs = make([]asyncMsg, 0, asyncMsgChunk)
	}
	a.asyncMsgs = append(a.asyncMsgs, asyncMsg{Profile: profile, Seq: a.asyncSpawned})
	return &a.asyncMsgs[len(a.asyncMsgs)-1]
}

// deliver consumes one message from the edge's topic and runs the
// downstream visit. Each delivery begins its own trace identity: the
// parent request has already moved on.
func (r *request) deliver() {
	a := r.a
	if _, ok, err := r.async.consumer.Next(); err != nil || !ok {
		// Nothing buffered (another delivery raced us to the record);
		// conservation-wise this spawn still completes.
		r.finish(metrics.DispositionError)
		return
	}
	r.id = a.reqTracer.Begin()
	a.newHop(r, nil, 0, r.async.dst, nil).visit()
}
