// Package bench parses `go test -bench` output, persists results as the
// repo's BENCH_engine.json schema, and compares fresh runs against a
// checked-in baseline with a tolerance band. It backs cmd/benchgate (the
// CI trajectory gate) and cmd/report's performance-trajectory section.
//
// The comparison treats the baseline as a floor on throughput, not a
// target: a fresh run may be arbitrarily faster, but a >tolerance ns/op
// regression or any allocs/op increase on a baselined benchmark fails.
// Allocations get zero tolerance because the event core's steady-state
// contract is exactly zero allocs/op — a single new allocation per op is
// a real leak, never measurement noise.
package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement. Field names match
// the BENCH_engine.json artifact schema.
type Result struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Suite is a set of benchmark results — the top-level JSON document.
type Suite struct {
	Benchmarks []Result `json:"benchmarks"`
}

// ParseText reads `go test -bench -benchmem` output and returns the
// aggregated suite. The GOMAXPROCS suffix (`BenchmarkFoo-8`) is stripped
// so results are comparable across machines. Repeated runs of one
// benchmark (-count=N) aggregate to the minimum ns/op and b/op — the
// least-noise estimate of the code's true cost — and the maximum
// allocs/op, the conservative choice for a zero-tolerance gate.
func ParseText(r io.Reader) (Suite, error) {
	byName := make(map[string]*Result)
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// Minimum shape: name, iters, ns/op value, "ns/op".
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		name := f[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return Suite{}, fmt.Errorf("bench: bad iteration count in %q: %v", line, err)
		}
		ns, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return Suite{}, fmt.Errorf("bench: bad ns/op in %q: %v", line, err)
		}
		res := Result{Name: name, Iters: iters, NsPerOp: ns}
		// -benchmem appends "N B/op  M allocs/op".
		for i := 4; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		prev, ok := byName[name]
		if !ok {
			r := res
			byName[name] = &r
			order = append(order, name)
			continue
		}
		if res.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = res.NsPerOp
			prev.Iters = res.Iters
		}
		if res.BPerOp < prev.BPerOp {
			prev.BPerOp = res.BPerOp
		}
		if res.AllocsPerOp > prev.AllocsPerOp {
			prev.AllocsPerOp = res.AllocsPerOp
		}
	}
	if err := sc.Err(); err != nil {
		return Suite{}, err
	}
	s := Suite{}
	for _, name := range order {
		s.Benchmarks = append(s.Benchmarks, *byName[name])
	}
	return s, nil
}

// Load reads a suite from a JSON file, rejecting unknown fields and
// trailing data so a malformed or hand-edited artifact fails loudly
// instead of loading half-read.
func Load(path string) (Suite, error) {
	f, err := os.Open(path)
	if err != nil {
		return Suite{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Suite
	if err := dec.Decode(&s); err != nil {
		return Suite{}, fmt.Errorf("bench: parsing %s: %v", path, err)
	}
	if dec.More() {
		return Suite{}, fmt.Errorf("bench: parsing %s: unexpected data after the suite object", path)
	}
	return s, nil
}

// Save writes the suite as indented JSON.
func Save(path string, s Suite) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DefaultTolerance is the ns/op regression band: a fresh run may be up
// to 15% slower than baseline before the gate fails, absorbing shared
// runner noise while still catching real slowdowns.
const DefaultTolerance = 0.15

// Delta is one benchmark's baseline-vs-current comparison.
type Delta struct {
	Name       string
	Base, Cur  Result
	NsDeltaPct float64 // (cur-base)/base * 100; 0 when base ns is 0
	Missing    bool    // baselined benchmark absent from the current run
	New        bool    // current benchmark with no baseline entry
	Regressed  bool
	Reason     string
}

// Compare evaluates current against baseline with the given ns/op
// tolerance (<= 0 selects DefaultTolerance). Every baselined benchmark
// must be present and within band; benchmarks new in current are
// reported but never regress. Deltas keep baseline order, then new
// benchmarks in current order.
func Compare(baseline, current Suite, tolerance float64) []Delta {
	if tolerance <= 0 {
		tolerance = DefaultTolerance
	}
	curByName := make(map[string]Result, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		curByName[r.Name] = r
	}
	var deltas []Delta
	seen := make(map[string]bool)
	for _, base := range baseline.Benchmarks {
		seen[base.Name] = true
		d := Delta{Name: base.Name, Base: base}
		cur, ok := curByName[base.Name]
		if !ok {
			d.Missing = true
			d.Regressed = true
			d.Reason = "benchmark missing from current run"
			deltas = append(deltas, d)
			continue
		}
		d.Cur = cur
		if base.NsPerOp > 0 {
			d.NsDeltaPct = (cur.NsPerOp - base.NsPerOp) / base.NsPerOp * 100
		}
		// The tiny relative epsilon keeps the band edge itself inside the
		// band (1+tolerance is not exactly representable in binary).
		switch {
		case cur.NsPerOp > base.NsPerOp*(1+tolerance)*(1+1e-12):
			d.Regressed = true
			d.Reason = fmt.Sprintf("ns/op regressed %.1f%% (> %.0f%% tolerance)",
				d.NsDeltaPct, tolerance*100)
		case cur.AllocsPerOp > base.AllocsPerOp:
			d.Regressed = true
			d.Reason = fmt.Sprintf("allocs/op grew %g -> %g (zero tolerance)",
				base.AllocsPerOp, cur.AllocsPerOp)
		}
		deltas = append(deltas, d)
	}
	for _, cur := range current.Benchmarks {
		if !seen[cur.Name] {
			deltas = append(deltas, Delta{Name: cur.Name, Cur: cur, New: true})
		}
	}
	return deltas
}

// Regressions filters deltas down to the gate failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Render formats the trajectory as an aligned text table: baseline vs
// current ns/op, the delta, and allocs/op, flagging regressions and new
// benchmarks. Used by cmd/benchgate output and cmd/report's performance
// section.
func Render(w io.Writer, deltas []Delta) {
	rows := make([][5]string, 0, len(deltas))
	for _, d := range deltas {
		var baseNs, curNs, delta, allocs string
		switch {
		case d.New:
			baseNs, curNs = "-", fmtNs(d.Cur.NsPerOp)
			delta = "new"
			allocs = fmt.Sprintf("%g", d.Cur.AllocsPerOp)
		case d.Missing:
			baseNs, curNs = fmtNs(d.Base.NsPerOp), "-"
			delta = "MISSING"
			allocs = fmt.Sprintf("%g", d.Base.AllocsPerOp)
		default:
			baseNs, curNs = fmtNs(d.Base.NsPerOp), fmtNs(d.Cur.NsPerOp)
			delta = fmt.Sprintf("%+.1f%%", d.NsDeltaPct)
			allocs = fmt.Sprintf("%g", d.Cur.AllocsPerOp)
			if d.Cur.AllocsPerOp != d.Base.AllocsPerOp {
				allocs = fmt.Sprintf("%g -> %g", d.Base.AllocsPerOp, d.Cur.AllocsPerOp)
			}
		}
		mark := ""
		if d.Regressed {
			mark = "REGRESSED"
		}
		rows = append(rows, [5]string{d.Name, baseNs, curNs, delta, allocs + sp(mark)})
	}
	header := [5]string{"benchmark", "base ns/op", "ns/op", "delta", "allocs/op"}
	widths := [5]int{len(header[0]), len(header[1]), len(header[2]), len(header[3]), len(header[4])}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(r [5]string) {
		fmt.Fprintf(w, "  %-*s  %*s  %*s  %*s  %s\n",
			widths[0], r[0], widths[1], r[1], widths[2], r[2], widths[3], r[3], r[4])
	}
	printRow(header)
	printRow([5]string{strings.Repeat("-", widths[0]), strings.Repeat("-", widths[1]),
		strings.Repeat("-", widths[2]), strings.Repeat("-", widths[3]), strings.Repeat("-", widths[4])})
	for _, r := range rows {
		printRow(r)
	}
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1000:
		return fmt.Sprintf("%.0f", ns)
	case ns >= 100:
		return fmt.Sprintf("%.1f", ns)
	default:
		return fmt.Sprintf("%.2f", ns)
	}
}

func sp(s string) string {
	if s == "" {
		return ""
	}
	return "  " + s
}
