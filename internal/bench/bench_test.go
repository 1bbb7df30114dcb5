package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: dcm/internal/sim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineScheduleFire-4            	22426521	        96.13 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineScheduleFire-4            	24645494	        90.40 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineScheduleFire-4            	23000000	        98.70 ns/op	       1 B/op	       1 allocs/op
BenchmarkEngineScheduleCancel-4          	12529615	       185.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkReferenceHeapScheduleFire-4     	13480815	       172.4 ns/op	      32 B/op	       1 allocs/op
PASS
ok  	dcm/internal/sim	15.039s
`

func TestParseTextAggregates(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(s.Benchmarks))
	}
	fire := s.Benchmarks[0]
	if fire.Name != "BenchmarkEngineScheduleFire" {
		t.Fatalf("name %q: GOMAXPROCS suffix not stripped", fire.Name)
	}
	// Three runs aggregate: min ns/op, max allocs/op, min B/op.
	if fire.NsPerOp != 90.40 {
		t.Fatalf("ns/op = %v, want the minimum 90.40", fire.NsPerOp)
	}
	if fire.AllocsPerOp != 1 {
		t.Fatalf("allocs/op = %v, want the maximum 1", fire.AllocsPerOp)
	}
	if fire.BPerOp != 0 {
		t.Fatalf("B/op = %v, want the minimum 0", fire.BPerOp)
	}
	ref := s.Benchmarks[2]
	if ref.NsPerOp != 172.4 || ref.BPerOp != 32 || ref.AllocsPerOp != 1 {
		t.Fatalf("single-run benchmark parsed as %+v", ref)
	}
}

func TestParseTextWithoutBenchmem(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader("BenchmarkX-8  100  5.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 1 || s.Benchmarks[0].NsPerOp != 5.0 || s.Benchmarks[0].AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", s.Benchmarks)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	t.Parallel()
	s, err := ParseText(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Save(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != len(s.Benchmarks) {
		t.Fatalf("round trip lost benchmarks: %d != %d", len(got.Benchmarks), len(s.Benchmarks))
	}
	for i := range got.Benchmarks {
		if got.Benchmarks[i] != s.Benchmarks[i] {
			t.Fatalf("round trip changed %+v to %+v", s.Benchmarks[i], got.Benchmarks[i])
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := Save(path, Suite{}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "unknown.json")
	if err := os.WriteFile(bad, []byte(`{"benchmarks":[],"extra":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// TestLoadRejectsTrailingDocument pins that a file holding a valid suite
// followed by a second JSON document (a hand-edited baseline with an
// entry pasted after the closing brace) fails instead of loading only the
// first document.
func TestLoadRejectsTrailingDocument(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "two.json")
	doc := `{"benchmarks":[{"name":"BenchmarkA","iters":1,"ns_per_op":1,"b_per_op":0,"allocs_per_op":0}]}`
	if err := os.WriteFile(path, []byte(doc+"\n"+doc+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "after the suite") {
		t.Fatalf("trailing document: err = %v, want an unexpected-data error", err)
	}
	// The same document alone, trailing whitespace included, still loads.
	if err := os.WriteFile(path, []byte(doc+"\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Load(path); err != nil || len(s.Benchmarks) != 1 {
		t.Fatalf("single document: %d benchmarks, err %v", len(s.Benchmarks), err)
	}
}

func suiteOf(results ...Result) Suite { return Suite{Benchmarks: results} }

func TestCompareTolerance(t *testing.T) {
	t.Parallel()
	base := suiteOf(Result{Name: "A", NsPerOp: 100, AllocsPerOp: 0})
	cases := []struct {
		name      string
		cur       Result
		regressed bool
	}{
		{"within-band", Result{Name: "A", NsPerOp: 114, AllocsPerOp: 0}, false},
		{"at-band-edge", Result{Name: "A", NsPerOp: 115, AllocsPerOp: 0}, false},
		{"past-band", Result{Name: "A", NsPerOp: 116, AllocsPerOp: 0}, true},
		{"faster", Result{Name: "A", NsPerOp: 40, AllocsPerOp: 0}, false},
		{"alloc-leak", Result{Name: "A", NsPerOp: 90, AllocsPerOp: 1}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			deltas := Compare(base, suiteOf(tc.cur), 0.15)
			if len(deltas) != 1 {
				t.Fatalf("got %d deltas", len(deltas))
			}
			if deltas[0].Regressed != tc.regressed {
				t.Fatalf("regressed = %v (%s), want %v", deltas[0].Regressed, deltas[0].Reason, tc.regressed)
			}
		})
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	t.Parallel()
	base := suiteOf(
		Result{Name: "A", NsPerOp: 100},
		Result{Name: "Gone", NsPerOp: 50},
	)
	cur := suiteOf(
		Result{Name: "A", NsPerOp: 99},
		Result{Name: "Fresh", NsPerOp: 10},
	)
	deltas := Compare(base, cur, 0)
	if len(deltas) != 3 {
		t.Fatalf("got %d deltas, want 3", len(deltas))
	}
	if !deltas[1].Missing || !deltas[1].Regressed {
		t.Fatalf("removed benchmark not flagged: %+v", deltas[1])
	}
	if !deltas[2].New || deltas[2].Regressed {
		t.Fatalf("new benchmark misflagged: %+v", deltas[2])
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "Gone" {
		t.Fatalf("regressions = %+v", regs)
	}
}

func TestRender(t *testing.T) {
	t.Parallel()
	base := suiteOf(
		Result{Name: "BenchmarkEngineScheduleFire", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "BenchmarkSlow", NsPerOp: 10, AllocsPerOp: 0},
	)
	cur := suiteOf(
		Result{Name: "BenchmarkEngineScheduleFire", NsPerOp: 40, AllocsPerOp: 0},
		Result{Name: "BenchmarkSlow", NsPerOp: 20, AllocsPerOp: 2},
		Result{Name: "BenchmarkFresh", NsPerOp: 5, AllocsPerOp: 0},
	)
	var sb strings.Builder
	Render(&sb, Compare(base, cur, 0.15))
	out := sb.String()
	for _, want := range []string{
		"BenchmarkEngineScheduleFire", "-60.0%",
		"BenchmarkSlow", "REGRESSED", "0 -> 2",
		"BenchmarkFresh", "new",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
