package experiments

import (
	"fmt"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/ntier"
	"dcm/internal/rng"
	"dcm/internal/runner"
	"dcm/internal/server"
	"dcm/internal/sim"
	"dcm/internal/workload"
)

// Fig2aRow is one point of Fig. 2(a): MySQL performance at a fixed request
// processing concurrency (workload concurrency matched to the pool size,
// exactly as §II-B stresses MySQL with Jmeter).
type Fig2aRow struct {
	Concurrency int     `json:"concurrency"`
	QueriesPerS float64 `json:"queriesPerS"`
	MeanRTms    float64 `json:"meanRTms"`
}

// DefaultFig2aConcurrencies mirrors the paper's 5→600 sweep.
func DefaultFig2aConcurrencies() []int {
	return []int{5, 10, 20, 30, 36, 40, 60, 80, 120, 160, 240, 320, 480, 600}
}

// Fig2aMySQLSweep stresses a standalone MySQL server at each concurrency
// level with a matching thread pool and zero-think closed-loop load —
// reproducing Fig. 2(a). The expected shape: throughput peaks near N≈40
// and declines steeply afterwards while per-query latency grows
// superlinearly. chk, when non-nil, is the runtime invariant checker
// attached to every sweep point (it is mutex-protected, so sharing it
// across the fanned-out points is safe).
func Fig2aMySQLSweep(seed uint64, concurrencies []int, measure time.Duration, chk *invariant.Checker) ([]Fig2aRow, error) {
	if len(concurrencies) == 0 {
		concurrencies = DefaultFig2aConcurrencies()
	}
	if measure <= 0 {
		measure = 20 * time.Second
	}
	cfg := ntier.DefaultConfig()
	// Each sweep point is an independent simulation (own engine, own rng
	// split keyed by n), so the points fan out across the worker pool and
	// come back in input order — identical rows to the serial loop.
	return runner.Map(concurrencies, 0, func(_ int, n int) (Fig2aRow, error) {
		return fig2aPoint(seed, cfg, n, measure, chk)
	})
}

func fig2aPoint(seed uint64, cfg ntier.Config, n int, measure time.Duration, chk *invariant.Checker) (Fig2aRow, error) {
	eng := sim.NewEngine()
	srv, err := server.New(eng, rng.New(seed).Split(fmt.Sprintf("db/%d", n)), server.Config{
		Name:       "mysql",
		Model:      cfg.DBModel,
		PoolSize:   n, // matching thread pool, as in §II-B
		ThrashKnee: cfg.DBThrashKnee,
		ThrashCoef: cfg.DBThrashCoef,
		ThrashCap:  cfg.DBThrashCap,
	})
	if err != nil {
		return Fig2aRow{}, fmt.Errorf("experiments: fig2a: %w", err)
	}
	if chk != nil {
		srv.SetInvariantChecker(chk)
		invariant.AttachEngine(chk, eng)
	}
	var rts metrics.MeanAccumulator
	var cycle func()
	cycle = func() {
		start := eng.Now()
		srv.AcquireDeadlineCritical(0, 0, false, func(sess *server.Session, _ metrics.Disposition) {
			sess.Exec(func() {
				rts.Observe((eng.Now() - start).Seconds())
				sess.Release()
				cycle()
			})
		})
	}
	for i := 0; i < n; i++ {
		cycle()
	}
	warmup := 5 * time.Second
	if err := eng.Run(warmup); err != nil {
		return Fig2aRow{}, fmt.Errorf("experiments: fig2a warmup: %w", err)
	}
	srv.TakeSample()
	rts.TakeMean()
	if err := eng.Run(warmup + measure); err != nil {
		return Fig2aRow{}, fmt.Errorf("experiments: fig2a measure: %w", err)
	}
	s := srv.TakeSample()
	mean, _ := rts.TakeMean()
	if chk != nil {
		chk.Check(eng.Now(), invariant.RulePoolAccounting, fmt.Sprintf("server mysql/n=%d", n), srv.CheckInvariant())
		invariant.CheckEngine(chk, eng)
	}
	return Fig2aRow{
		Concurrency: n,
		QueriesPerS: float64(s.Completions) / measure.Seconds(),
		MeanRTms:    mean * 1000,
	}, nil
}

// Fig2bResult reproduces Fig. 2(b) as the paper describes it: a 1/1/1
// system under sustained high workload scales its Tomcat tier out at
// runtime. Without soft-resource adaptation the new Tomcat brings its own
// default 80-connection pool, the maximum concurrency reaching MySQL
// doubles to 160, and the join transient kicks MySQL into its collapsed
// regime — throughput *decreases* although hardware was added.
// Reallocating the connection pools to 40 per Tomcat at the moment of
// scaling (the fix §II-B prescribes) avoids the trap entirely.
type Fig2bResult struct {
	Users int `json:"users"`
	// XBefore is steady-state throughput of 1/1/1 before the scale-out.
	XBefore float64 `json:"xBefore"`
	// XAfterDefault and XAfterCorrected are steady-state throughput after
	// the second Tomcat joined, without and with conn-pool reallocation.
	XAfterDefault   float64 `json:"xAfterDefault"`
	XAfterCorrected float64 `json:"xAfterCorrected"`
	// SeriesDefault and SeriesCorrected are per-second throughput across
	// the scaling event (the figure's time axis; the event is at the
	// midpoint... one phase in).
	SeriesDefault   []float64 `json:"seriesDefault"`
	SeriesCorrected []float64 `json:"seriesCorrected"`
	// ScaleAtSecond is the index in the series where the second Tomcat
	// joined.
	ScaleAtSecond int `json:"scaleAtSecond"`
}

// Fig2bScaleOut runs the dynamic scale-out experiment at the given
// sustained user population (default 3000, which saturates the 1/1/1
// system). phase is how long each phase runs (default 60 s). chk, when
// non-nil, is the runtime invariant checker attached to both variants'
// apps and engines.
func Fig2bScaleOut(seed uint64, users int, phase time.Duration, chk *invariant.Checker) (Fig2bResult, error) {
	if users <= 0 {
		users = 3000
	}
	if phase <= 0 {
		phase = 60 * time.Second
	}
	res := Fig2bResult{Users: users, ScaleAtSecond: int(phase.Seconds())}

	// The default and corrected variants are independent runs; execute
	// them concurrently.
	type variant struct {
		before, after float64
		series        []float64
	}
	variants, err := runner.Map([]bool{false, true}, 0, func(_ int, correct bool) (variant, error) {
		v := variant{series: make([]float64, 0, int(3*phase/time.Second)+1)}
		cfg := ntier.DefaultConfig() // 1/1/1, 1000/100/80
		_, err := assemble(runPlan{
			seed:  seed,
			chain: &cfg,
			chk:   chk,
			load: func(r *run, src *rng.Rand) (workload.Generator, error) {
				return workload.NewClosedLoop(r.eng, src, r.app, workload.ClosedLoopConfig{
					Users:     users,
					ThinkTime: 3 * time.Second,
				})
			},
			sample: func(r *run) {
				v.series = append(v.series, float64(r.app.TakeStats().Completions))
			},
			// Phase A settles and measures 1/1/1. Then the second Tomcat
			// joins at runtime, and phase B measures the scaled system's
			// steady state.
			midAt: phase,
			mid: func(r *run) error {
				v.before = meanTail(v.series, int(phase.Seconds())/2)
				// The corrected variant reallocates the DB connection pools
				// at the same moment, as §II-B prescribes: 20 connections
				// per Tomcat, so the maximum concurrency reaching MySQL is 40.
				if correct {
					if err := r.app.SetEdgePoolSize(ntier.TierApp, ntier.TierDB, 20); err != nil {
						return fmt.Errorf("pool resize: %w", err)
					}
				}
				if _, err := r.app.AddMember(ntier.TierApp, ""); err != nil {
					return fmt.Errorf("scale out: %w", err)
				}
				return nil
			},
			horizon: 3 * phase,
		})
		if err != nil {
			return v, fmt.Errorf("experiments: fig2b: %w", err)
		}
		v.after = meanTail(v.series, int(phase.Seconds()))
		return v, nil
	})
	if err != nil {
		return res, err
	}
	res.XBefore, res.XAfterDefault, res.SeriesDefault = variants[0].before, variants[0].after, variants[0].series
	res.XAfterCorrected, res.SeriesCorrected = variants[1].after, variants[1].series
	return res, nil
}

// meanTail averages the last n values of series.
func meanTail(series []float64, n int) float64 {
	if len(series) == 0 {
		return 0
	}
	if n <= 0 || n > len(series) {
		n = len(series)
	}
	sum := 0.0
	for _, v := range series[len(series)-n:] {
		sum += v
	}
	return sum / float64(n)
}

// RenderFig2a renders the sweep as an aligned table.
func RenderFig2a(rows []Fig2aRow) string {
	tb := metrics.NewTable("concurrency", "queries/s", "mean RT (ms)")
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%d", r.Concurrency), fmtF(r.QueriesPerS, 1), fmtF(r.MeanRTms, 2))
	}
	return tb.String()
}

// RenderFig2b renders the dynamic scale-out comparison.
func RenderFig2b(r Fig2bResult) string {
	tb := metrics.NewTable("phase", "throughput (req/s)")
	tb.AddRow("1/1/1 before scale-out", fmtF(r.XBefore, 1))
	tb.AddRow("1/2/1 default 80 conns each", fmtF(r.XAfterDefault, 1))
	tb.AddRow("1/2/1 corrected 20 conns each", fmtF(r.XAfterCorrected, 1))
	return tb.String()
}
