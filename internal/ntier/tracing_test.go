package ntier

import (
	"strings"
	"testing"
	"time"
)

func TestTraceRequestsCapturesSpans(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	app.TraceRequests(2)
	for i := 0; i < 5; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	traces := app.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2 (armed count)", len(traces))
	}
	for _, tr := range traces {
		if !tr.OK || tr.Total <= 0 {
			t.Fatalf("trace not finalized: %+v", tr)
		}
		// web + app + 2 db queries.
		if len(tr.Spans) != 4 {
			t.Fatalf("spans = %d: %+v", len(tr.Spans), tr.Spans)
		}
		// Execution order: queries recorded before app before web (inner
		// stages finish first).
		if tr.Spans[0].Stage != "db-query-1" || tr.Spans[1].Stage != "db-query-2" {
			t.Fatalf("query spans wrong: %+v", tr.Spans)
		}
		if tr.Spans[2].Stage != "app" || tr.Spans[3].Stage != "web" {
			t.Fatalf("tier spans wrong: %+v", tr.Spans)
		}
		// The web span covers (almost) the whole request.
		if tr.Spans[3].Duration > tr.Total || tr.Spans[3].Duration < tr.Total/2 {
			t.Fatalf("web span %v vs total %v", tr.Spans[3].Duration, tr.Total)
		}
		// graph.Span starts are non-negative offsets within the request.
		for _, sp := range tr.Spans {
			if sp.Start < 0 || sp.Start > tr.Total {
				t.Fatalf("span start out of range: %+v", sp)
			}
			if sp.Server == "" {
				t.Fatalf("span has no server: %+v", sp)
			}
		}
	}
	// IDs are sequential.
	if traces[0].ID != 1 || traces[1].ID != 2 {
		t.Fatalf("ids = %d, %d", traces[0].ID, traces[1].ID)
	}
}

func TestTraceStringRendering(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	app.TraceRequests(1)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	out := app.Traces()[0].String()
	for _, want := range []string{"#1", "web", "app", "db-query-1", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestTraceDisarmedByDefault(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(app.Traces()) != 0 {
		t.Fatal("untraced request captured")
	}
	app.TraceRequests(-1) // clamps to zero
	app.Inject(nil)
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(app.Traces()) != 0 {
		t.Fatal("negative arm captured traces")
	}
}

func TestTraceFailedRequest(t *testing.T) {
	t.Parallel()
	eng, app := newApp(t, fastConfig())
	if err := app.FailMember(TierDB, "db-1"); err != nil {
		t.Fatal(err)
	}
	app.TraceRequests(1)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	traces := app.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d", len(traces))
	}
	if traces[0].OK {
		t.Fatal("failed request traced as ok")
	}
	if !strings.Contains(traces[0].String(), "FAILED") {
		t.Fatal("rendering missing FAILED")
	}
}

func TestTraceServletName(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []RequestClass{{Name: "OnlyOne", Weight: 1, AppDemand: 1, Queries: 1, QueryDemand: 1}}
	eng, app := newApp(t, cfg)
	app.TraceRequests(1)
	app.Inject(nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := app.Traces()[0].Class; got != "OnlyOne" {
		t.Fatalf("class = %q", got)
	}
}
