package graph

import (
	"reflect"
	"testing"
	"time"

	"dcm/internal/resilience"
)

// TestTraceSpanLabels traces one request through the benchmark diamond
// and checks every stage label: parallel calls are numbered per branch
// ("svcA-call-<i>"), pooled serial calls per query ("db-query-<i>"), and
// unpooled serial hops and the entry carry the node name. Spans land in
// completion order, inner stages first.
func TestTraceSpanLabels(t *testing.T) {
	t.Parallel()
	eng, app, chk := newTestApp(t, benchDiamondSpec(), resilience.Config{})
	app.TraceRequests(1)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	traces := app.Traces()
	if len(traces) != 1 || !traces[0].OK {
		t.Fatalf("traces %+v, want one finished request", traces)
	}
	var stages []string
	for _, sp := range traces[0].Spans {
		stages = append(stages, sp.Stage)
		if sp.Server == "" || sp.Start < 0 || sp.Start+sp.Duration > traces[0].Total {
			t.Errorf("span %+v outside the request's %v", sp, traces[0].Total)
		}
	}
	want := []string{
		"db-query-1", "svcA-call-1", // branch 1: its db query, then itself
		"db-query-1", "svcA-call-2", // branch 2
		"db-query-1", "svcB", // the serial call after the join
		"front",
	}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("stages %q, want %q", stages, want)
	}
	requireClean(t, app, chk)
}
