package graph

import (
	"testing"
	"time"

	"dcm/internal/connpool"
	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
)

// newTestApp builds an app over spec with an attached invariant checker.
func newTestApp(t *testing.T, spec Spec, res resilience.Config) (*sim.Engine, *App, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{Spec: spec, Resilience: res})
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	return eng, app, chk
}

// requireClean fails on any recorded invariant violation.
func requireClean(t *testing.T, app *App, chk *invariant.Checker) {
	t.Helper()
	app.CheckInvariants()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", len(vs), invariant.Render(vs))
	}
}

// TestParallelJoinCountsPartialFailureOnce drives a 3-way parallel
// fan-out into a node with one thread and a one-slot admission queue:
// two branches serve, the third is rejected at the door. The join must
// adopt the failed branch's disposition exactly once — the request is one
// Rejected in the whole-graph ledger, not three — while the per-node
// ledger still records every branch visit, and conservation must hold.
func TestParallelJoinCountsPartialFailureOnce(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "join",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 1},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: 3}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{MaxQueue: 1})

	app.Inject(func(rt time.Duration, ok bool) {
		if ok {
			t.Error("request with a failed branch reported ok")
		}
	})
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}

	d := app.Dispositions()
	if d.Rejected != 1 || d.Total() != 1 {
		t.Fatalf("whole-graph dispositions %+v, want exactly one Rejected", d)
	}
	visits := app.NodeVisits()
	b := visits["b"]
	if b.Started != 3 || b.Dispositions.OK != 2 || b.Dispositions.Rejected != 1 {
		t.Fatalf("node b ledger %+v, want 3 branch visits (2 OK, 1 Rejected)", b)
	}
	a := visits["a"]
	if a.Started != 1 || a.Dispositions.Rejected != 1 {
		t.Fatalf("node a ledger %+v, want the join's single Rejected", a)
	}
	requireClean(t, app, chk)
}

// TestParallelJoinAllBranchesOK is the happy-path control: every branch
// completes, the join is one OK.
func TestParallelJoinAllBranchesOK(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "join-ok",
		Entry: "a",
		Nodes: []NodeSpec{
			{Name: "a", Model: testModel(), Threads: 4},
			{Name: "b", Model: testModel(), Threads: 4},
		},
		Edges: []EdgeSpec{{From: "a", To: "b", Kind: EdgeParallel, Visits: 3}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	oks := 0
	app.Inject(func(rt time.Duration, ok bool) {
		if ok {
			oks++
		}
	})
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if oks != 1 {
		t.Fatalf("completions %d, want 1", oks)
	}
	if d := app.Dispositions(); d.OK != 1 || d.Total() != 1 {
		t.Fatalf("dispositions %+v", d)
	}
	if b := app.NodeVisits()["b"]; b.Started != 3 || b.Dispositions.OK != 3 {
		t.Fatalf("node b ledger %+v, want 3 OK branch visits", b)
	}
	requireClean(t, app, chk)
}

// requireAsyncRetained checks that the async edge key's bus topic holds
// exactly the messages published on it that no delivery has read yet,
// and that there are want of them.
func requireAsyncRetained(t *testing.T, a *App, key string, want int) {
	t.Helper()
	e := a.edgeByKey[key]
	msgs, err := a.bs.Fetch(e.topic, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	spawned, _, _ := a.AsyncLedger()
	if undelivered := int64(spawned) - e.consumer.Offset(); int64(len(msgs)) != undelivered {
		t.Fatalf("topic %s retains %d messages, but %d are undelivered", e.topic, len(msgs), undelivered)
	}
	if len(msgs) != want {
		t.Fatalf("topic %s retains %d messages, want %d", e.topic, len(msgs), want)
	}
}

// TestAsyncEdgeAccounting pins the fire-and-forget ledger: async
// deliveries never touch the caller's disposition, and every spawn is
// eventually accounted done with the async in-flight gauge back at zero.
// It also pins the bounded log behind the ledger: the edge's topic keeps
// only undelivered messages, delivered payloads are reused, and a steady
// stream of deliveries allocates nothing. It is not parallel, so no other
// test's allocations reach the allocation count.
func TestAsyncEdgeAccounting(t *testing.T) {
	spec := Spec{
		Name:  "async",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: testModel(), Threads: 8},
			{Name: "audit", Model: testModel(), Threads: 1},
		},
		Edges: []EdgeSpec{{From: "front", To: "audit", Kind: EdgeAsync, Visits: 2}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	const n = 5
	oks := 0
	for i := 0; i < n; i++ {
		app.Inject(func(rt time.Duration, ok bool) {
			if ok {
				oks++
			}
		})
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if oks != n {
		t.Fatalf("caller completions %d, want %d — async outcomes leaked into callers", oks, n)
	}
	if d := app.Dispositions(); d.OK != n || d.Total() != n {
		t.Fatalf("caller dispositions %+v", d)
	}
	spawned, done, inFlight := app.AsyncLedger()
	if spawned != 2*n || done.OK != 2*n || inFlight != 0 {
		t.Fatalf("async ledger spawned=%d done=%+v inFlight=%d, want %d/%d/0",
			spawned, done, inFlight, 2*n, 2*n)
	}
	if audit := app.NodeVisits()["audit"]; audit.Started != 2*n || audit.Dispositions.OK != 2*n {
		t.Fatalf("audit ledger %+v, want %d delivered visits", audit, 2*n)
	}
	requireAsyncRetained(t, app, "front->audit", 0)
	requireClean(t, app, chk)

	// One request at a time, many chunks' worth of deliveries. A delivery
	// reads its message in the instant of its publish, so the backlog
	// peaked above, at 2 visits x 5 simultaneous requests: every payload
	// since must come from the free list, and one chunk covers the run.
	noop := func(time.Duration, bool) {}
	spaced := func(requests int) {
		for i := 0; i < requests; i++ {
			app.Inject(noop)
			if err := eng.Run(eng.Now() + 50*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// rtWindow holds one float per OK request until TakeStats;
			// emptying it keeps its growth out of the count below.
			app.rtWindow = app.rtWindow[:0]
		}
	}
	spaced(2 * asyncMsgChunk)
	const peakBacklog = 2 * n
	if spawned, _, _ := app.AsyncLedger(); spawned <= 4*asyncMsgChunk {
		t.Fatalf("spawned %d deliveries, want more than %d chunks' worth", spawned, 4)
	}
	if maxChunks := (peakBacklog + asyncMsgChunk - 1) / asyncMsgChunk; app.asyncChunks > maxChunks {
		t.Fatalf("carved %d payload chunks for a peak backlog of %d, want at most %d",
			app.asyncChunks, peakBacklog, maxChunks)
	}
	requireAsyncRetained(t, app, "front->audit", 0)
	if allocs := testing.AllocsPerRun(1, func() { spaced(asyncMsgChunk) }); allocs != 0 {
		t.Fatalf("%d steady-state requests with async deliveries allocated %v times, want 0",
			asyncMsgChunk, allocs)
	}
	requireClean(t, app, chk)
}

// TestAsyncInFlightAtHorizon stops the clock while deliveries are still
// queued behind the slow audit node: the ledger must show the outstanding
// work, and the conservation sweep must stay clean (spawned = done +
// in-flight is the async invariant, not spawned = done). The backlog is
// at the audit node, not on the bus: each delivery read its message when
// it was published, so the topic must retain nothing.
func TestAsyncInFlightAtHorizon(t *testing.T) {
	t.Parallel()
	slow := testModel()
	slow.S0 = 50e-3 // 50 ms per delivery through one thread
	spec := Spec{
		Name:  "async-backlog",
		Entry: "front",
		Nodes: []NodeSpec{
			{Name: "front", Model: testModel(), Threads: 8},
			{Name: "audit", Model: slow, Threads: 1},
		},
		Edges: []EdgeSpec{{From: "front", To: "audit", Kind: EdgeAsync, Visits: 1}},
	}
	eng, app, chk := newTestApp(t, spec, resilience.Config{})
	const n = 10
	for i := 0; i < n; i++ {
		app.Inject(func(time.Duration, bool) {})
	}
	// 10 deliveries need ~500 ms; stop at 120 ms with a backlog.
	if err := eng.Run(120 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	spawned, done, inFlight := app.AsyncLedger()
	if spawned != n {
		t.Fatalf("spawned %d, want %d", spawned, n)
	}
	if inFlight == 0 || done.Total() == uint64(n) {
		t.Fatalf("expected an async backlog at the horizon: done=%+v inFlight=%d", done, inFlight)
	}
	if done.Total()+uint64(inFlight) != uint64(n) {
		t.Fatalf("async ledger leak: spawned=%d done=%d inFlight=%d", spawned, done.Total(), inFlight)
	}
	requireAsyncRetained(t, app, "front->audit", 0)
	// No more than the n spawned payloads were ever undelivered at once.
	if maxChunks := (n + asyncMsgChunk - 1) / asyncMsgChunk; app.asyncChunks > maxChunks {
		t.Fatalf("carved %d payload chunks for a peak backlog of %d, want at most %d",
			app.asyncChunks, n, maxChunks)
	}
	requireClean(t, app, chk)
}

// TestCacheHitRatioShortCircuit pins the cache node semantics at the
// extremes: hit ratio 1 never visits downstream, hit ratio 0 always does.
func TestCacheHitRatioShortCircuit(t *testing.T) {
	t.Parallel()
	build := func(ratio float64) Spec {
		return Spec{
			Name:  "cache",
			Entry: "web",
			Nodes: []NodeSpec{
				{Name: "web", Model: testModel(), Threads: 8},
				{Name: "mc", Kind: KindCache, Model: testModel(), Threads: 8, HitRatio: ratio},
				{Name: "db", Model: testModel(), Threads: 4},
			},
			Edges: []EdgeSpec{
				{From: "web", To: "mc", Visits: 1},
				{From: "mc", To: "db", Visits: 2},
			},
		}
	}
	const n = 20
	for _, tc := range []struct {
		ratio    float64
		dbVisits uint64
	}{{1, 0}, {0, 2 * n}} {
		eng, app, chk := newTestApp(t, build(tc.ratio), resilience.Config{})
		for i := 0; i < n; i++ {
			app.Inject(func(time.Duration, bool) {})
		}
		if err := eng.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		if d := app.Dispositions(); d.OK != n {
			t.Fatalf("ratio %v: dispositions %+v", tc.ratio, d)
		}
		if db := app.NodeVisits()["db"]; db.Started != tc.dbVisits {
			t.Fatalf("ratio %v: db saw %d visits, want %d", tc.ratio, db.Started, tc.dbVisits)
		}
		hits, misses, err := app.CacheStats("mc")
		if err != nil {
			t.Fatal(err)
		}
		if hits+misses != n {
			t.Fatalf("ratio %v: %d lookups recorded, want %d", tc.ratio, hits+misses, n)
		}
		requireClean(t, app, chk)
	}
}

// TestLRUCache pins the recency semantics of the cache node's LRU.
func TestLRUCache(t *testing.T) {
	t.Parallel()
	c := newLRUCache(2)
	if c.Access(1) {
		t.Fatal("cold cache hit")
	}
	if !c.Access(1) {
		t.Fatal("resident key missed")
	}
	c.Access(2)      // {2, 1}
	c.Access(1)      // touch 1 -> {1, 2}
	if c.Access(3) { // evicts 2 -> {3, 1}
		t.Fatal("insert of new key reported a hit")
	}
	if c.Access(2) {
		t.Fatal("evicted key still resident")
	}
	// Inserting 2 evicted 1 (LRU after the 3 insert): {2, 3}.
	if !c.Access(3) {
		t.Fatal("recently used key evicted out of order")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want capacity 2", c.Len())
	}
}

// TestMisfiredCallbacksAreViolations wires the hop-frame ownership rule
// into the invariant checker: each frame callback fires once, so a
// callback landing on a recycled frame, or a completion carrying a stale
// generation, is a conservation violation and is dropped. Without a
// checker it panics, like a double Release.
func TestMisfiredCallbacksAreViolations(t *testing.T) {
	t.Parallel()
	eng, app, chk := newTestApp(t, benchDiamondSpec(), resilience.Config{})
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	requireClean(t, app, chk)
	f := app.freeHops
	if f == nil || app.freeReqs == nil {
		t.Fatal("finished request left no recycled frame or record")
	}
	stale := f.gen - 1
	misfires := []func(){
		func() { f.acquired(nil, metrics.DispositionError) },
		f.burstDone,
		func() { f.granted(nil, metrics.DispositionRejected) },
		func() { f.childDone(stale, 0, metrics.DispositionOK) },
		func() { f.childDone(f.gen, 0, metrics.DispositionOK) },
		func() {
			// An entry visit whose request record was recycled under it.
			h := app.newHop(app.freeReqs, nil, 0, app.entry, nil)
			h.rgen--
			h.report(metrics.DispositionOK)
		},
	}
	for _, fire := range misfires {
		fire()
	}
	vs := chk.Violations()
	if len(vs) != len(misfires) {
		t.Fatalf("%d violation(s) for %d misfired callbacks:\n%s", len(vs), len(misfires), invariant.Render(vs))
	}
	for _, v := range vs {
		if v.Rule != invariant.RuleConservation {
			t.Errorf("misfire reported as %s, want %s", v.Rule, invariant.RuleConservation)
		}
	}
	// The dropped callbacks left every ledger as it was.
	if d := app.Dispositions(); d.OK != 1 || d.Total() != 1 {
		t.Fatalf("dispositions %+v after misfires", d)
	}

	app.SetInvariantChecker(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("misfire without a checker did not panic")
		}
	}()
	f.burstDone()
}

// TestStaleReleaseIsViolation pins the resource-record ownership rule:
// the gates recycle a session or connection on Release, so a frame whose
// handle outlived its grant would release the record's next holder. The
// frame compares the generation it kept at the grant, reports a mismatch
// as a conservation violation and drops the release; without a checker
// it panics.
func TestStaleReleaseIsViolation(t *testing.T) {
	t.Parallel()
	_, app, chk := newTestApp(t, benchDiamondSpec(), resilience.Config{})
	m := app.Members("svcA")[0]
	srv, pool := m.Server(), m.Pool()
	var sess *server.Session
	var conn *connpool.Conn
	srv.Acquire(func(s *server.Session) { sess = s })
	pool.Acquire(func(c *connpool.Conn) { conn = c })
	oldSess, oldConn := sess, conn
	sessGen, connGen := sess.Gen(), conn.Gen()
	sess.Release()
	conn.Release()
	// The next grants reuse the records under new generations.
	srv.Acquire(func(s *server.Session) { sess = s })
	pool.Acquire(func(c *connpool.Conn) { conn = c })
	if sess != oldSess || conn != oldConn || sess.Gen() == sessGen || conn.Gen() == connGen {
		t.Fatal("released records were not recycled under a new generation")
	}
	stale := func() *hop {
		f := app.newHop(app.newRequest(), nil, 0, m.node, nil)
		f.sess, f.sessGen, f.conn, f.connGen = sess, sessGen, conn, connGen
		return f
	}
	stale().release()
	vs := chk.Violations()
	if len(vs) != 2 {
		t.Fatalf("%d violation(s) for two stale releases:\n%s", len(vs), invariant.Render(vs))
	}
	for _, v := range vs {
		if v.Rule != invariant.RuleConservation {
			t.Errorf("stale release reported as %s, want %s", v.Rule, invariant.RuleConservation)
		}
	}
	if srv.Active() != 1 || pool.InUse() != 1 {
		t.Fatalf("stale releases freed the next holders' units: active %d, connections %d", srv.Active(), pool.InUse())
	}

	app.SetInvariantChecker(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("stale release without a checker did not panic")
		}
	}()
	stale().release()
}

// TestCrashDuringPreemptedBurst pins which verdict wins when a member
// crashes during a burst the deadline then preempts. A leaf call reads
// the crash first (the chain's DB-query semantics: Error); the entry
// visit reads the preemption first (Timeout).
func TestCrashDuringPreemptedBurst(t *testing.T) {
	t.Parallel()
	slow := testModel()
	slow.S0 = 1 // one-second bursts, preempted at the 500 ms deadline
	for _, tc := range []struct {
		name  string
		spec  Spec
		crash string
		want  metrics.DispositionCounts
	}{
		{"leaf call", Spec{
			Name:  "leaf",
			Entry: "a",
			Nodes: []NodeSpec{
				{Name: "a", Model: testModel(), Threads: 4},
				{Name: "b", Model: slow, Threads: 4},
			},
			Edges: []EdgeSpec{{From: "a", To: "b", Visits: 1}},
		}, "b", metrics.DispositionCounts{Errored: 1}},
		{"entry visit", Spec{
			Name:  "entry",
			Entry: "a",
			Nodes: []NodeSpec{{Name: "a", Model: slow, Threads: 4}},
		}, "a", metrics.DispositionCounts{TimedOut: 1}},
	} {
		eng, app, chk := newTestApp(t, tc.spec, resilience.Config{RequestTimeout: 500 * time.Millisecond})
		victim := app.Members(tc.crash)[0].Name()
		app.Inject(nil)
		eng.Schedule(300*time.Millisecond, func() {
			if err := app.FailMember(tc.crash, victim); err != nil {
				t.Error(err)
			}
		})
		if err := eng.Run(time.Minute); err != nil {
			t.Fatal(err)
		}
		if d := app.NodeVisits()[tc.crash].Dispositions; d != tc.want {
			t.Errorf("%s: %s visit %+v, want %+v", tc.name, tc.crash, d, tc.want)
		}
		requireClean(t, app, chk)
	}
}
