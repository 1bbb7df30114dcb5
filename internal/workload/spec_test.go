package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

const validOpenSpec = `{
  "name": "openloop-2class",
  "kind": "open",
  "arrivals": {"curve": "flashcrowd", "rate": 2000, "peakRate": 12000,
               "atSeconds": 120, "rampSeconds": 30, "holdSeconds": 60},
  "classes": [
    {"name": "premium", "weight": 0.2, "priority": 1, "sloSeconds": 1},
    {"name": "basic", "weight": 0.8}
  ]
}`

func TestParseSpecValid(t *testing.T) {
	s, err := ParseSpec([]byte(validOpenSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "openloop-2class" || s.Kind != KindOpen {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if s.Arrivals.PeakRate != 12000 || len(s.Classes) != 2 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	if got := s.Classes[0].SLO(); got != time.Second {
		t.Fatalf("premium SLO = %v, want 1s", got)
	}
}

// TestParseSpecStrict pins the strict-decoding contract: unknown fields
// and trailing garbage fail loudly, matching the policy loader.
func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"kind": "open", "arivals": {"curve": "constant", "rate": 5}}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "arivals"`) {
		t.Fatalf("typoed field: got %v, want unknown-field error", err)
	}
	// Unknown fields are rejected at any nesting depth.
	if _, err := ParseSpec([]byte(`{"kind": "open", "arrivals": {"curve": "constant", "rate": 5, "paekRate": 9}}`)); err == nil ||
		!strings.Contains(err.Error(), `unknown field "paekRate"`) {
		t.Fatalf("nested typoed field: got %v, want unknown-field error", err)
	}
	const want = "workload: parse spec: unexpected data after spec object"
	if _, err := ParseSpec([]byte(`{"kind": "open", "arrivals": {"curve": "constant", "rate": 5}} {"x": 1}`)); err == nil ||
		err.Error() != want {
		t.Fatalf("trailing garbage: got %v, want %q", err, want)
	}
}

// TestSpecValidatePinnedErrors pins the spec-level validation texts.
func TestSpecValidatePinnedErrors(t *testing.T) {
	openArr := &RateSpec{Curve: "constant", Rate: 100}
	cases := []struct {
		name string
		spec WorkloadSpec
		want string
	}{
		{"no kind", WorkloadSpec{}, "workload: kind is required"},
		{"unknown kind", WorkloadSpec{Kind: "trace"}, `workload: unknown kind "trace"`},
		{"closed no users", WorkloadSpec{Kind: "closed"}, "workload: closed kind: users must be > 0 (got 0)"},
		{"closed with arrivals", WorkloadSpec{Kind: "closed", Users: 5, Arrivals: openArr},
			"workload: closed kind: arrivals/bursty do not apply"},
		{"open no arrivals", WorkloadSpec{Kind: "open"}, "workload: open kind: arrivals is required"},
		{"open with users", WorkloadSpec{Kind: "open", Users: 5, Arrivals: openArr},
			"workload: open kind: users/think/bursty do not apply"},
		{"bursty no bursty", WorkloadSpec{Kind: "bursty"}, "workload: bursty kind: bursty is required"},
		{"negative stagger", WorkloadSpec{Kind: "closed", Users: 5, StaggerSeconds: -1},
			"workload: staggerSeconds must be >= 0 (got -1)"},
		{"unnamed class", WorkloadSpec{Kind: "open", Arrivals: openArr,
			Classes: []ClassSpec{{Weight: 1}}}, "workload: class 0 has no name"},
		{"duplicate class", WorkloadSpec{Kind: "open", Arrivals: openArr,
			Classes: []ClassSpec{{Name: "a", Weight: 1}, {Name: "a", Weight: 1}}},
			`workload: duplicate class "a"`},
		{"zero weight", WorkloadSpec{Kind: "open", Arrivals: openArr,
			Classes: []ClassSpec{{Name: "a"}}}, `workload: class "a": weight must be > 0 (got 0)`},
		{"open class think", WorkloadSpec{Kind: "open", Arrivals: openArr,
			Classes: []ClassSpec{{Name: "a", Weight: 1, Think: &DistSpec{Dist: "constant", Mean: 1}}}},
			`workload: class "a": per-class think applies only to closed kind`},
		{"bad curve", WorkloadSpec{Kind: "open", Arrivals: &RateSpec{Curve: "spike", Rate: 1}},
			`workload: arrivals: unknown curve "spike"`},
		{"no curve rate", WorkloadSpec{Kind: "open", Arrivals: &RateSpec{Curve: "constant"}},
			"workload: arrivals: rate must be > 0 (got 0)"},
		{"diurnal amplitude", WorkloadSpec{Kind: "open",
			Arrivals: &RateSpec{Curve: "diurnal", Rate: 10, Amplitude: 1.5, PeriodSeconds: 60}},
			"workload: arrivals: diurnal amplitude must be in (0, 1] (got 1.5)"},
		{"flash peak", WorkloadSpec{Kind: "open",
			Arrivals: &RateSpec{Curve: "flashcrowd", Rate: 10, PeakRate: 5, RampSeconds: 1}},
			"workload: arrivals: flashcrowd peakRate must exceed rate (got 5 <= 10)"},
		{"bursty users", WorkloadSpec{Kind: "bursty", Bursty: &BurstySpec{}},
			"workload: bursty: users must be > 0 (got 0)"},
		{"bursty classes", WorkloadSpec{Kind: "bursty",
			Bursty:  &BurstySpec{Users: 5, NormalThinkSeconds: 3, SurgeThinkSeconds: 0.3, NormalDwellSeconds: 60, SurgeDwellSeconds: 10},
			Classes: []ClassSpec{{Name: "a", Weight: 1}}},
			"workload: bursty kind: classes are not supported"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: want error %q, got nil", tc.name, tc.want)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, err.Error(), tc.want)
		}
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wl.json")
	if err := os.WriteFile(path, []byte(validOpenSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"kind": "open"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadSpec(bad)
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("bad file: error %v should name the path", err)
	}
}

// classFakeTarget extends fakeTarget by recording the class and session
// each request carries.
type classFakeTarget struct {
	fakeTarget
	byClass   map[int]int
	bySession map[uint64]int
	// sessionClass is the class each non-zero session first carried, and
	// sessionOpen its requests in flight; classSwitches and sessionShared
	// count requests that broke "one user, one class, one session".
	sessionClass  map[uint64]int
	sessionOpen   map[uint64]int
	classSwitches int
	sessionShared int
}

func (f *classFakeTarget) InjectClass(class int, session uint64, done func(rt time.Duration, ok bool)) {
	if f.byClass == nil {
		f.byClass = make(map[int]int)
		f.bySession = make(map[uint64]int)
		f.sessionClass = make(map[uint64]int)
		f.sessionOpen = make(map[uint64]int)
	}
	f.byClass[class]++
	f.bySession[session]++
	if session == 0 {
		f.fakeTarget.Inject(done)
		return
	}
	if first, seen := f.sessionClass[session]; !seen {
		f.sessionClass[session] = class
	} else if first != class {
		f.classSwitches++
	}
	// A closed-loop user has at most one request in flight, so a second
	// open request on a session means two users share it.
	if f.sessionOpen[session]++; f.sessionOpen[session] > 1 {
		f.sessionShared++
	}
	f.fakeTarget.Inject(func(rt time.Duration, ok bool) {
		f.sessionOpen[session]--
		done(rt, ok)
	})
}

// TestSpecBuildKinds builds one generator of each kind through the spec
// path and runs it briefly.
func TestSpecBuildKinds(t *testing.T) {
	specs := map[string]WorkloadSpec{
		"closed": {Kind: "closed", Users: 10,
			Think: &DistSpec{Dist: "lognormal", Mean: 0.5, CV: 2}},
		"open": {Kind: "open", Arrivals: &RateSpec{Curve: "constant", Rate: 200}},
		"bursty": {Kind: "bursty", Bursty: &BurstySpec{
			Users: 10, NormalThinkSeconds: 1, SurgeThinkSeconds: 0.1,
			NormalDwellSeconds: 5, SurgeDwellSeconds: 2}},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			target := &classFakeTarget{fakeTarget: fakeTarget{eng: eng, delay: 5 * time.Millisecond}}
			gen, err := spec.Build(eng, rng.New(11).Split("wl"), target)
			if err != nil {
				t.Fatal(err)
			}
			gen.Start()
			if err := eng.Run(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			gen.Stop()
			if target.total == 0 {
				t.Fatal("generator issued no requests")
			}
			// Classless traffic takes the one class path as class -1 with
			// no session.
			if len(target.byClass) != 1 || target.byClass[-1] != target.total ||
				len(target.bySession) != 1 || target.bySession[0] != target.total {
				t.Fatalf("classless %d requests: by class %v, by session %v, want all (-1, 0)",
					target.total, target.byClass, target.bySession)
			}
		})
	}
}

// TestSpecBuildClassMix verifies class-tagged dispatch end to end: both
// generators draw classes near the configured weights, and closed-loop
// users keep stable per-user sessions.
func TestSpecBuildClassMix(t *testing.T) {
	classes := []ClassSpec{
		{Name: "premium", Weight: 0.25, Priority: 1},
		{Name: "basic", Weight: 0.75},
	}
	t.Run("open", func(t *testing.T) {
		eng := sim.NewEngine()
		target := &classFakeTarget{fakeTarget: fakeTarget{eng: eng, delay: time.Millisecond}}
		spec := WorkloadSpec{Kind: "open",
			Arrivals: &RateSpec{Curve: "constant", Rate: 2000}, Classes: classes}
		gen, err := spec.Build(eng, rng.New(5).Split("wl"), target)
		if err != nil {
			t.Fatal(err)
		}
		gen.Start()
		if err := eng.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		total := target.byClass[0] + target.byClass[1]
		if total == 0 {
			t.Fatal("no class-tagged requests")
		}
		share := float64(target.byClass[0]) / float64(total)
		if share < 0.22 || share > 0.28 {
			t.Fatalf("premium share %.3f, want ~0.25", share)
		}
		if target.bySession[0] != total {
			t.Fatalf("open-loop arrivals must be sessionless: %v", target.bySession)
		}
	})
	t.Run("closed", func(t *testing.T) {
		eng := sim.NewEngine()
		target := &classFakeTarget{fakeTarget: fakeTarget{eng: eng, delay: time.Millisecond}}
		spec := WorkloadSpec{Kind: "closed", Users: 40,
			Think: &DistSpec{Dist: "constant", Mean: 0.05}, Classes: classes}
		gen, err := spec.Build(eng, rng.New(5).Split("wl"), target)
		if err != nil {
			t.Fatal(err)
		}
		gen.Start()
		if err := eng.Run(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(target.bySession) != 40 {
			t.Fatalf("sessions: got %d, want one per user (40)", len(target.bySession))
		}
		if n := target.byClass[0] + target.byClass[1]; n != target.total {
			t.Fatalf("class-tagged %d of %d requests", n, target.total)
		}
		for sid, n := range target.bySession {
			if sid == 0 {
				t.Fatal("closed-loop user with zero session id")
			}
			if n == 0 {
				t.Fatalf("session %d issued nothing", sid)
			}
		}
		if target.classSwitches != 0 || target.sessionShared != 0 {
			t.Fatalf("%d requests switched class and %d shared a session, want 0 and 0",
				target.classSwitches, target.sessionShared)
		}
	})
}
