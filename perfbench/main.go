// Command perfbench is the repository's benchmark: it runs one named
// simulated workload through the program's public entry points, checks
// that every run's simulated output is correct, and prints each metric by
// name with its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// Plain mode (--trace 0) repeats the workload, each run in a fresh child
// process, for --seconds and reports host cost. Traced mode (--trace 1)
// runs the workload once plain and once under the invariant checker and
// the CPU and heap profilers, runs the layer ladder, and reports the
// per-layer metrics. See README.md for every metric.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the recorded digests were taken at.
const defaultSeed = 42

// recordedDigests maps each workload to its result digest at defaultSeed.
//
//go:embed digests.json
var recordedDigestsJSON []byte

// memProfileRate is the heap-profile sampling rate of the traced run:
// fine enough that every layer's allocations are sampled many times.
const memProfileRate = 4096

// cpuProfileHz is the traced run's CPU sampling rate.
const cpuProfileHz = 500

// Plain-mode run counts: at least minRuns runs even past --seconds, at
// most maxRuns, after setupRuns set-up-only children that make setup_s a
// median of many cheap samples.
const (
	minRuns   = 3
	maxRuns   = 200
	setupRuns = 20
)

// invocationBudget bounds one invocation, children included.
const invocationBudget = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig5-dcm | fanout5-flash | million-users")
		seed    = flag.Uint64("seed", defaultSeed, "workload seed")
		seconds = flag.Int("seconds", 10, "measurement time in seconds (plain mode)")
		traced  = flag.Int("trace", 0, "1 runs the traced mode: profiles, invariants and the layer ladder")
		child   = flag.String("child", "", "internal: run one workload in this process (setup | plain | traced)")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for generated inputs")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced, *child, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, traced int, child, workdir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	switch child {
	case "setup", "plain", "traced":
		return runChild(w, seed, child, workdir)
	case "":
	default:
		return fmt.Errorf("unknown child mode %q", child)
	}
	var recorded map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &recorded); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	want := ""
	if seed == defaultSeed {
		want = recorded[name]
	}
	ctx, cancel := context.WithTimeout(context.Background(), invocationBudget)
	defer cancel()
	p := parent{ctx: ctx, workload: name, seed: seed, workdir: workdir, wantDigest: want}
	var res result
	switch traced {
	case 0:
		res = p.plain(time.Duration(seconds) * time.Second)
	case 1:
		res = p.traced()
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if res.Attempted == 0 || len(res.Metrics) == 0 {
		return errors.New("no run produced metrics")
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// childReport is what one child process measured, printed as the last
// line of its standard output.
type childReport struct {
	// StartUnixNano is when the timed runner call began.
	StartUnixNano int64   `json:"start_unix_nano"`
	WallS         float64 `json:"wall_s"`
	CPUS          float64 `json:"cpu_s"`
	Mallocs       uint64  `json:"mallocs"`
	Bytes         uint64  `json:"bytes"`
	Requests      uint64  `json:"requests"`
	Digest        string  `json:"digest"`
	StatsDigest   string  `json:"stats_digest"`
	Violations    int     `json:"violations"`
	// Failure explains a failed output check; empty when every check held.
	Failure string `json:"failure,omitempty"`
	// Layer holds the per-layer metrics (traced children only).
	Layer map[string]float64 `json:"layer,omitempty"`
}

// runChild sets up one workload, makes the timed runner call, checks its
// output and prints a childReport. A setup child stops where the timed
// call would begin.
func runChild(w workloadDef, seed uint64, mode, workdir string) error {
	traced := mode == "traced"
	if traced {
		runtime.MemProfileRate = memProfileRate
	}
	// One simulation on one goroutine; the collector may use a second core.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	b, err := w.setup(seed, workdir)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	var heapBefore []runtime.MemProfileRecord
	if traced {
		heapBefore = memRecords()
		// Sample at cpuProfileHz instead of pprof's 100 Hz so that short
		// runs still charge hundreds of samples to each busy layer. The
		// runtime warns on stderr that StartCPUProfile cannot reset the
		// rate; the rate set here is the one used.
		runtime.SetCPUProfileRate(cpuProfileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	} else {
		runtime.GC()
	}
	if mode == "setup" {
		return json.NewEncoder(os.Stdout).Encode(childReport{StartUnixNano: time.Now().UnixNano()})
	}
	var ru0, ru1 syscall.Rusage
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return err
	}
	t0 := time.Now()
	out, err := b.run(traced)
	wall := time.Since(t0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	if traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	rep := childReport{
		StartUnixNano: t0.UnixNano(),
		WallS:         wall.Seconds(),
		CPUS:          cpuSeconds(ru1) - cpuSeconds(ru0),
		Mallocs:       m1.Mallocs - m0.Mallocs,
		Bytes:         m1.TotalAlloc - m0.TotalAlloc,
		Requests:      out.requests,
		Digest:        out.digest,
		StatsDigest:   out.statsDigest,
		Violations:    out.violations,
	}
	if out.check != nil {
		rep.Failure = out.check.Error()
	}
	if traced {
		if rep.Layer, err = tracedLayers(b, seed, out, prof.Bytes(), heapBefore, rep); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// perReqAllocLayers are the layers whose allocations per request are
// reported.
var perReqAllocLayers = []string{"graph", "sim", "server", "workload", "bus", "metrics"}

// accessorMetrics lists the per-layer values read from result accessors;
// each is 0 where the workload's result does not have it.
var accessorMetrics = []string{
	"sim.events_per_req", "sim.peak_pending",
	"resilience.ok_ratio", "resilience.reject_ratio", "resilience.shed_ratio",
	"control.actions",
	"tier.app.queue_p95", "tier.app.pool_wait_p95_ms", "tier.db.service_p95_ms",
}

// tracedLayers turns the traced run's profiles, result accessors and the
// layer ladder into the per-layer metrics.
func tracedLayers(b benchRun, seed uint64, out outcome, cpuProfile []byte, heapBefore []runtime.MemProfileRecord, rep childReport) (map[string]float64, error) {
	m := map[string]float64{}
	cpu, err := cpuByLayer(cpuProfile)
	if err != nil {
		return nil, err
	}
	for l, v := range shares(cpu) {
		m["cpu_share."+l] = v
	}
	allocs := shares(allocsByLayer(heapBefore, memRecords(), memProfileRate))
	perReq := float64(rep.Mallocs) / float64(max(rep.Requests, 1))
	for _, l := range perReqAllocLayers {
		m["allocs_per_req."+l] = allocs[l] * perReq
	}
	sh := b.shape()
	for _, k := range accessorMetrics {
		m[k] = out.layer[k]
	}
	if _, ok := out.layer["sim.peak_pending"]; !ok {
		m["sim.peak_pending"] = float64(sh.population)
	}
	// The controller rung replays fig5-dcm's audited decisions; the other
	// workloads record them from an extra fig5-dcm run at their seed.
	decisions := out.decisions
	if decisions == nil {
		f, err := setupFig5(seed, "")
		if err != nil {
			return nil, err
		}
		fo, err := f.run(true)
		if err != nil {
			return nil, err
		}
		decisions = fo.decisions
	}
	ladder, err := runLadder(sh, decisions)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		m[k] = v
	}
	return m, nil
}

// virtualMS is the unit of simulated (virtual) time.
const virtualMS = "virtual ms"

// layerUnit returns the unit of a per-layer metric.
func layerUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "cpu_share."):
		return "share"
	case strings.HasPrefix(name, "allocs_per_req."):
		return "allocs/req"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_allocs"):
		return "allocs/op"
	case strings.HasSuffix(name, "_ms"):
		return virtualMS
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case name == "sim.events_per_req":
		return "events/req"
	case name == "sim.peak_pending":
		return "events"
	case name == "tier.app.queue_p95":
		return "requests"
	}
	return "count"
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs children and aggregates their reports.
type parent struct {
	ctx        context.Context
	workload   string
	seed       uint64
	workdir    string
	wantDigest string
}

// spawnResult is one child run as the parent saw it.
type spawnResult struct {
	rep       childReport
	setupS    float64
	peakRSSMB float64
	err       error
}

// spawn runs one child process to completion.
func (p parent) spawn(mode string) spawnResult {
	exe, err := os.Executable()
	if err != nil {
		return spawnResult{err: err}
	}
	cmd := exec.CommandContext(p.ctx, exe, "--child", mode, "--workload", p.workload,
		"--seed", strconv.FormatUint(p.seed, 10), "--workdir", p.workdir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return spawnResult{err: fmt.Errorf("%s child: %w", mode, err)}
	}
	var r spawnResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &r.rep); err != nil {
		return spawnResult{err: fmt.Errorf("%s child report: %w", mode, err)}
	}
	r.setupS = time.Unix(0, r.rep.StartUnixNano).Sub(spawned).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if r.rep.Failure != "" {
		r.err = fmt.Errorf("output check: %s", r.rep.Failure)
	}
	return r
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// checkDigests fails every run whose digest differs from the most common
// digest among the runs, or from the recorded one at the default seed.
func (p parent) checkDigests(runs []spawnResult) {
	count := map[string]int{}
	for _, r := range runs {
		if r.err == nil {
			count[r.rep.Digest]++
		}
	}
	ref := p.wantDigest
	if ref == "" {
		for d, c := range count {
			if c > count[ref] || (c == count[ref] && d < ref) {
				ref = d
			}
		}
	}
	for i := range runs {
		if runs[i].err == nil && runs[i].rep.Digest != ref {
			runs[i].err = fmt.Errorf("digest %s, want %s", runs[i].rep.Digest, ref)
		}
	}
}

// plain repeats the workload in fresh children for d (at least minRuns
// times) and reports the end-to-end metrics as medians.
func (p parent) plain(d time.Duration) result {
	start := time.Now()
	var setups, runs []spawnResult
	for i := 0; i < setupRuns && p.ctx.Err() == nil; i++ {
		setups = append(setups, p.spawn("setup"))
	}
	for len(runs) < maxRuns && (len(runs) < minRuns || time.Since(start) < d) {
		if p.ctx.Err() != nil {
			break
		}
		runs = append(runs, p.spawn("plain"))
	}
	p.checkDigests(runs)
	series := map[string][]float64{}
	failed := 0
	for i, r := range setups {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "setup %d failed: %v\n", i, r.err)
			continue
		}
		series["setup_s"] = append(series["setup_s"], r.setupS)
	}
	for i, r := range runs {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "run %d failed: %v\n", i, r.err)
			continue
		}
		req := float64(max(r.rep.Requests, 1))
		series["wall_s"] = append(series["wall_s"], r.rep.WallS)
		series["cpu_s"] = append(series["cpu_s"], r.rep.CPUS)
		series["peak_rss_mb"] = append(series["peak_rss_mb"], r.peakRSSMB)
		series["allocs_per_req"] = append(series["allocs_per_req"], float64(r.rep.Mallocs)/req)
		series["bytes_per_req"] = append(series["bytes_per_req"], float64(r.rep.Bytes)/req)
		series["setup_s"] = append(series["setup_s"], r.setupS)
	}
	units := map[string]string{
		"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
		"allocs_per_req": "allocs/req", "bytes_per_req": "B/req", "setup_s": "s",
	}
	attempted := len(setups) + len(runs)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s seed %d: %d runs and %d set-ups, %d failed\n", p.workload, p.seed, len(runs), len(setups), failed)
	for _, r := range runs {
		if r.err == nil {
			fmt.Printf("digest %s\n", r.rep.Digest)
			break
		}
	}
	for _, name := range sortedKeys(units) {
		xs := series[name]
		if len(xs) == 0 {
			continue
		}
		q1, q3 := quartiles(xs)
		med := median(xs)
		line := fmt.Sprintf("%-16s median %.6g %s  q1 %.6g  q3 %.6g  n %d", name, med, units[name], q1, q3, len(xs))
		if name == "wall_s" {
			if pct, v, ok := tailPercentile(xs); ok {
				line += fmt.Sprintf("  p%g %.6g (≥10 runs beyond)", pct, v)
			} else {
				line += "  tail: no percentile has 10 runs beyond it"
			}
		}
		fmt.Println(line)
		res.Metrics[name] = metric{Value: med, Unit: units[name]}
	}
	return res
}

// traced runs the workload plain once and traced once, and reports the
// traced child's per-layer metrics plus the tracing overhead.
func (p parent) traced() result {
	runs := []spawnResult{p.spawn("plain"), p.spawn("traced")}
	plainRun, tracedRun := &runs[0], &runs[1]
	if tracedRun.err == nil && tracedRun.rep.Violations != 0 {
		tracedRun.err = fmt.Errorf("%d invariant violations", tracedRun.rep.Violations)
	}
	// The traced run must simulate exactly what the plain run did; its full
	// digest differs only where the checker's own sweep events count.
	p.checkDigests(runs[:1])
	if plainRun.err == nil && tracedRun.err == nil && plainRun.rep.StatsDigest != tracedRun.rep.StatsDigest {
		tracedRun.err = fmt.Errorf("traced statistics digest %s != plain %s", tracedRun.rep.StatsDigest, plainRun.rep.StatsDigest)
	}
	failed := 0
	for _, r := range runs {
		if r.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "traced mode:", r.err)
		}
	}
	res := result{Correct: failed == 0, Attempted: len(runs), Failed: failed, Metrics: map[string]metric{}}
	if tracedRun.err != nil {
		return res
	}
	layer := tracedRun.rep.Layer
	if plainRun.err == nil {
		layer["trace.overhead_s"] = tracedRun.rep.WallS - plainRun.rep.WallS
	}
	fmt.Printf("workload %s seed %d traced: statistics digest %s as plain, 0 invariant violations\n", p.workload, p.seed, tracedRun.rep.StatsDigest)
	for _, k := range sortedKeys(layer) {
		u := layerUnit(k)
		fmt.Printf("%-28s %.6g %s\n", k, layer[k], u)
		// Simulated times are printed but not gated: the digest pins them,
		// and they are 0 on the workloads that have no such tier.
		if u != virtualMS {
			res.Metrics[k] = metric{Value: layer[k], Unit: u}
		}
	}
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
