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
// publish boxes nothing of its own. Delivery hands the payload back to
// App.freeAsyncMsgs, so the payloads in use never outnumber the peak
// backlog of undelivered messages.
type asyncMsg struct {
	// Profile names the demand profile the delivery runs under ("" = the
	// topology defaults).
	Profile string `json:"profile,omitempty"`
	// Seq is the spawn sequence number (1-based, per app).
	Seq uint64 `json:"seq"`
	// next links the free list.
	next *asyncMsg
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
		a.bs.Publish(e.topic, e.key, a.newAsyncMsg(prof.name))
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

// newAsyncMsg records the payload of spawn asyncSpawned in a delivered
// payload off the free list, or else in the current chunk, starting a new
// chunk when it is full. A payload is not written again until its
// delivery has read it and the topic has dropped it.
func (a *App) newAsyncMsg(profile string) *asyncMsg {
	m := a.freeAsyncMsgs
	if m != nil {
		a.freeAsyncMsgs = m.next
	} else {
		if len(a.asyncMsgs) == cap(a.asyncMsgs) {
			a.asyncMsgs = make([]asyncMsg, 0, asyncMsgChunk)
			a.asyncChunks++
		}
		a.asyncMsgs = a.asyncMsgs[:len(a.asyncMsgs)+1]
		m = &a.asyncMsgs[len(a.asyncMsgs)-1]
	}
	*m = asyncMsg{Profile: profile, Seq: a.asyncSpawned}
	return m
}

// freeAsyncMsg hands a payload nothing references any more back for
// reuse.
func (a *App) freeAsyncMsg(m *asyncMsg) {
	m.next = a.freeAsyncMsgs
	a.freeAsyncMsgs = m
}

// deliver consumes one message from the edge's topic and runs the
// downstream visit. Each delivery begins its own trace identity: the
// parent request has already moved on.
func (r *request) deliver() {
	a := r.a
	msg, ok := r.async.consumer.Next()
	if !ok {
		// Nothing buffered (another delivery raced us to the record);
		// conservation-wise this spawn still completes.
		r.finish(metrics.DispositionError)
		return
	}
	// The read trimmed the message from its retain-until-read topic, so
	// this was the payload's last reference.
	a.freeAsyncMsg(msg.Value.(*asyncMsg))
	r.id = a.reqTracer.Begin()
	a.newHop(r, nil, 0, r.async.dst, nil).visit()
}
