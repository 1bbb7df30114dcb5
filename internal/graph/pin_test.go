package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"
	"testing"
	"time"

	"dcm/internal/metrics"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/trace"
)

// walkPins fixes what the DAG walk does on three shipped topologies under
// the full resilience preset with a member crashed mid-run. A plain pin
// hashes the data plane: the ordered completion stream, the disposition
// tally, every node's visit ledger and the async ledger. An events pin
// hashes the JSONL stream of a request tracer attached to the same run.
// Any change to the walk that moves an event, a draw or a record changes
// a pin.
var walkPins = map[string]string{
	"fanout5/plain":   "b1ae99e92297cd5c6cdb2936cddeb92e2aeb8e2e432128f086e41e6f139f23bc",
	"fanout5/events":  "4e10f558fe63ae49151668dd02c32398d1d989ec86b3476f0930c03526127045",
	"diamond4/plain":  "7c7ea08b85c73fd76ec321dfaf536ac8bd9b8772c70f97c5a427aa3e17c6d242",
	"diamond4/events": "168c2860d8df4911d66754c05aa1706b52bb9ed0d4d208797c7cb3210a4131c3",
	"cache3/plain":    "a21f7b13f7fe25edc147a073554afa87f26aefadb18e2191fa61266823ec35c1",
	"cache3/events":   "294ae8fccaba3970b77ef2801842df15fad84c500aa99378e946f0dc412324ae",
}

// walkPinCase names a topology, its arrival rate and the node whose first
// member crashes halfway through the run.
type walkPinCase struct {
	topology string
	rate     float64
	crash    string
}

var walkPinCases = []walkPinCase{
	{"fanout5", 500, "search"},
	{"diamond4", 650, "reviews"},
	{"cache3", 900, "memcache"},
}

// runWalkPin drives one fixed Poisson stream through the topology, with tr
// attached when it is non-nil, and returns the sha256 of the run's data
// plane. The crashed node is given a second member first, so the crash
// kills in-flight visits while the node keeps serving.
func runWalkPin(t *testing.T, c walkPinCase, tr *trace.RequestTracer) (string, *App) {
	t.Helper()
	spec, err := LoadSpec("../../topologies/" + c.topology + ".json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := resilience.Preset("full", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	eng, app, chk := newTestApp(t, spec, *res)
	app.SetRequestTracer(tr)
	victim := app.Members(c.crash)[0].Name()
	if _, err := app.AddMember(c.crash, ""); err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	const horizon = 8 * time.Second
	arrivals := rng.New(42).Split("arrivals")
	var arrive func()
	arrive = func() {
		app.Inject(func(rt time.Duration, ok bool) {
			fmt.Fprintf(h, "%d %d %t\n", eng.Now(), rt, ok)
		})
		next := time.Duration(arrivals.Exp(1/c.rate) * float64(time.Second))
		if eng.Now()+next < horizon {
			eng.Schedule(next, arrive)
		}
	}
	eng.Schedule(0, arrive)
	eng.Schedule(horizon/2, func() {
		if err := app.FailMember(c.crash, victim); err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(horizon + 10*time.Second); err != nil {
		t.Fatal(err)
	}
	requireClean(t, app, chk)
	if app.inFlight != 0 {
		t.Fatalf("%d requests still in flight after the drain", app.inFlight)
	}

	writeJSON(t, h, app.Dispositions())
	visits := app.NodeVisits()
	names := make([]string, 0, len(visits))
	for name := range visits {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "node %s ", name)
		writeJSON(t, h, visits[name])
	}
	spawned, done, inFlight := app.AsyncLedger()
	fmt.Fprintf(h, "async %d %d ", spawned, inFlight)
	writeJSON(t, h, done)
	return hex.EncodeToString(h.Sum(nil)), app
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

// TestWalkDigestPins replays each pinned topology untraced and traced.
// Both runs' data-plane digests must match the plain pin, so tracing
// perturbs nothing, and the traced run's event stream must match the
// events pin. Across the runs the walk must also report every
// disposition, serve cache hits and deliver async messages, so a pin that
// holds really does cover join-after-failure, crash mid-visit, admission
// control, the cache short-circuit and async edges.
func TestWalkDigestPins(t *testing.T) {
	t.Parallel()
	var all metrics.DispositionCounts
	var hits, spawned uint64
	for _, c := range walkPinCases {
		for _, tr := range []*trace.RequestTracer{nil, trace.NewRequestTracer(0)} {
			key := c.topology + "/plain"
			got, app := runWalkPin(t, c, tr)
			if want := walkPins[key]; got != want {
				t.Errorf("%s digest %s (traced %t), want %s", key, got, tr != nil, want)
			}
			if tr != nil {
				if tr.Len() == 0 || tr.Dropped() != 0 {
					t.Fatalf("%s: tracer kept %d events and dropped %d", c.topology, tr.Len(), tr.Dropped())
				}
				h := sha256.New()
				if err := tr.WriteJSONL(h); err != nil {
					t.Fatal(err)
				}
				key = c.topology + "/events"
				if got, want := hex.EncodeToString(h.Sum(nil)), walkPins[key]; got != want {
					t.Errorf("%s digest %s, want %s", key, got, want)
				}
			}
			d := app.Dispositions()
			all.OK += d.OK
			all.Errored += d.Errored
			all.TimedOut += d.TimedOut
			all.Rejected += d.Rejected + d.Shed
			all.BreakerOpen += d.BreakerOpen
			if c.topology == "cache3" {
				h, _, _ := app.CacheStats("memcache")
				hits += h
			}
			s, _, _ := app.AsyncLedger()
			spawned += s
		}
	}
	if all.OK == 0 || all.Errored == 0 || all.TimedOut == 0 || all.Rejected == 0 || all.BreakerOpen == 0 {
		t.Errorf("pinned runs miss a disposition: %+v", all)
	}
	if hits == 0 || spawned == 0 {
		t.Errorf("pinned runs miss the cache (%d hits) or async edges (%d spawned)", hits, spawned)
	}
}
