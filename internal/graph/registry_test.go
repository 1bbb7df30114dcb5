package graph

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dcm/internal/invariant"
	"dcm/internal/resilience"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

// stateHook reads the transition observer installed on br. The breaker
// keeps the field unexported; the test reads it to prove the graph wired
// one onto every member.
func stateHook(br *resilience.Breaker) func(from, to resilience.BreakerState) {
	f := reflect.ValueOf(br).Elem().FieldByName("stateHook")
	return *(*func(from, to resilience.BreakerState))(unsafe.Pointer(f.UnsafeAddr()))
}

// tripBreaker records failures until the member's breaker opens, which
// refuses attempts for its cooldown.
func tripBreaker(t *testing.T, now time.Duration, m *Member) {
	t.Helper()
	for i := 0; i < 100 && m.breaker.Ready(now); i++ {
		m.breaker.Record(now, false)
	}
	if m.breaker.Ready(now) {
		t.Fatalf("%s: breaker did not open", m.Name())
	}
}

// TestMemberRegistryLifecycle drives a node's replica set through every
// admin call with breakers on — auto-named and named adds, drain and
// remove, a crash, and a re-add under the crashed member's name — and
// checks after each step that the balancer, the only registry of the
// members, answers Members, Member and MemberCount consistently, in
// registration order, and that every member carries its own breaker.
func TestMemberRegistryLifecycle(t *testing.T) {
	t.Parallel()
	spec := Spec{
		Name:  "registry",
		Entry: "web",
		Nodes: []NodeSpec{
			{Name: "web", Model: testModel(), Threads: 4},
			{Name: "app", Model: testModel(), Threads: 4, Replicas: 2},
		},
		Edges: []EdgeSpec{{From: "web", To: "app", PoolSize: 2}},
	}
	eng := sim.NewEngine()
	app, err := New(eng, rng.New(1).Split("app"), Config{
		Spec:       spec,
		Resilience: resilience.Config{Breaker: resilience.DefaultBreakerConfig()},
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step string, want ...string) {
		t.Helper()
		members := app.Members("app")
		var got []string
		for _, m := range members {
			got = append(got, m.Name())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: Members = %v, want %v", step, got, want)
		}
		if n := app.MemberCount("app"); n != len(want) {
			t.Fatalf("%s: MemberCount = %d, want %d", step, n, len(want))
		}
		for _, m := range members {
			byName, err := app.Member("app", m.Name())
			if err != nil || byName != m {
				t.Fatalf("%s: Member(%q) = %p, %v; Members holds %p", step, m.Name(), byName, err, m)
			}
			if m.breaker == nil {
				t.Fatalf("%s: %s has no breaker", step, m.Name())
			}
		}
	}
	gone := func(step, name string) {
		t.Helper()
		if _, err := app.Member("app", name); !errors.Is(err, ErrUnknownMember) {
			t.Fatalf("%s: Member(%q) err = %v, want ErrUnknownMember", step, name, err)
		}
	}
	add := func(name string) *Member {
		t.Helper()
		m, err := app.AddMember("app", name)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	check("new", "app-1", "app-2")
	if web := app.Members("web"); len(web) != 1 || web[0].Name() != "web-1" || web[0].breaker != nil {
		t.Fatalf("entry node members %v: want web-1 alone, without a breaker", web)
	}

	if m := add(""); m.Name() != "app-3" {
		t.Fatalf("auto-named member %q, want app-3", m.Name())
	}
	add("custom")
	check("add", "app-1", "app-2", "app-3", "custom")
	if _, err := app.AddMember("app", "custom"); err == nil {
		t.Fatal("duplicate AddMember succeeded")
	}
	check("duplicate add", "app-1", "app-2", "app-3", "custom")

	drained := false
	if err := app.StartDrain("app", "app-2", func() { drained = true }); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(eng.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("idle member never reported drained")
	}
	if err := app.RemoveMember("app", "app-2"); err != nil {
		t.Fatal(err)
	}
	check("drain+remove", "app-1", "app-3", "custom")
	gone("drain+remove", "app-2")

	crashed, _ := app.Member("app", "app-1")
	tripBreaker(t, eng.Now(), crashed)
	if err := app.FailMember("app", "app-1"); err != nil {
		t.Fatal(err)
	}
	check("fail", "app-3", "custom")
	gone("fail", "app-1")

	reborn := add("app-1")
	check("re-add", "app-3", "custom", "app-1")
	if reborn == crashed || reborn.breaker == crashed.breaker {
		t.Fatal("re-added member reuses the crashed member's record or breaker")
	}
	if !reborn.breaker.Ready(eng.Now()) {
		t.Fatal("re-added member's breaker refuses attempts, want a fresh closed one")
	}
	if m := add(""); m.Name() != "app-4" {
		t.Fatalf("auto-named member after re-add %q, want app-4", m.Name())
	}
	check("auto-add after re-add", "app-3", "custom", "app-1", "app-4")

	// A checker attached after the members exist must observe every
	// member's breaker: a real trip reaches the installed hook, and the
	// hook reports an illegal edge under the member's own name.
	chk := invariant.New()
	app.SetInvariantChecker(chk)
	for _, m := range app.Members("app") {
		hook := stateHook(m.breaker)
		if hook == nil {
			t.Fatalf("%s: no breaker hook after SetInvariantChecker", m.Name())
		}
		seen := 0
		m.breaker.SetStateHook(func(from, to resilience.BreakerState) {
			seen++
			hook(from, to)
		})
		tripBreaker(t, eng.Now(), m)
		if seen != 1 {
			t.Fatalf("%s: hook saw %d transitions on a trip, want 1", m.Name(), seen)
		}
		hook(resilience.StateClosed, resilience.StateHalfOpen)
	}
	vs := chk.Violations()
	if len(vs) != 4 {
		t.Fatalf("%d violations, want one illegal edge per member:\n%s", len(vs), invariant.Render(vs))
	}
	for i, m := range app.Members("app") {
		if want := "breaker " + m.Name(); vs[i].Where != want {
			t.Fatalf("violation %d at %q, want %q", i, vs[i].Where, want)
		}
	}
	app.SetInvariantChecker(nil)
	for _, m := range app.Members("app") {
		if stateHook(m.breaker) != nil {
			t.Fatalf("%s: breaker hook survives detaching the checker", m.Name())
		}
	}
}
