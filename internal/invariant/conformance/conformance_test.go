package conformance

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dcm/internal/invariant"
	"dcm/internal/metrics"
	"dcm/internal/model"
	"dcm/internal/mva"
	"dcm/internal/rng"
	"dcm/internal/server"
	"dcm/internal/sim"
)

// stationRun is one single-station closed-system simulation: users clients
// cycle acquire → exec(demand) → release → think against a server obeying
// the Equation 5 law params with the given pool and distribution. The
// invariant checker is attached for the whole run and the returned checker
// lets the caller assert structural cleanliness alongside the throughput.
func stationRun(t *testing.T, params model.Params, dist server.ServiceDistribution,
	pool, users int, think time.Duration, demand float64) (float64, *invariant.Checker) {
	t.Helper()
	eng := sim.NewEngine()
	chk := invariant.New()
	invariant.AttachEngine(chk, eng)
	srv, err := server.New(eng, rng.New(17).Split("s"), server.Config{
		Name:         "station",
		Model:        params,
		PoolSize:     pool,
		Distribution: dist,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetInvariantChecker(chk)
	r := rng.New(17).Split("think")
	var done metrics.Counter
	var cycle func()
	cycle = func() {
		srv.Acquire(func(sess *server.Session) {
			sess.ExecDemand(demand, func() {
				sess.Release()
				done.Inc(1)
				if think <= 0 {
					cycle()
					return
				}
				z := time.Duration(r.Exp(think.Seconds()) * float64(time.Second))
				eng.Schedule(z, cycle)
			})
		})
	}
	for i := 0; i < users; i++ {
		delay := time.Duration(r.Uniform(0, float64(time.Second)))
		eng.Schedule(delay, cycle)
	}
	warmup := 10 * time.Second
	if err := eng.Run(warmup); err != nil {
		t.Fatal(err)
	}
	done.TakeDelta()
	const measure = 120 * time.Second
	if err := eng.Run(warmup + measure); err != nil {
		t.Fatal(err)
	}
	chk.Check(eng.Now(), invariant.RulePoolAccounting, "station", srv.CheckInvariant())
	invariant.CheckEngine(chk, eng)
	return float64(done.TakeDelta()) / measure.Seconds(), chk
}

// requireClean fails the test if the run recorded any invariant violations.
func requireClean(t *testing.T, chk *invariant.Checker) {
	t.Helper()
	if vs := chk.Violations(); len(vs) > 0 {
		t.Fatalf("%d invariant violation(s):\n%s", chk.Total(), invariant.Render(vs))
	}
}

// TestEq7AtModelOptimum pins the simulator to Equation 7 where the paper
// evaluates it: a server driven at exactly its optimal concurrency
// N_b = sqrt((S0-alpha)/beta). With a matched pool, zero think time and
// deterministic service the concurrency is constant at N_b, so measured
// throughput must equal X = N_b/S*(N_b) — the gamma=1 gauge of Eq. 7 —
// within 5% (the acceptance tolerance; the residual error is start-up
// stagger and edge effects of the finite window).
func TestEq7AtModelOptimum(t *testing.T) {
	t.Parallel()
	paperTomcat, paperMySQL := model.TableI()
	cases := []struct {
		name   string
		params model.Params
	}{
		{"tomcat-tableI", paperTomcat},
		{"mysql-tableI", paperMySQL},
		{"tomcat-sim", model.Params{S0: 4.64e-3, Alpha: 8.08e-4, Beta: 9.46e-6, Gamma: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// The simulator implements the service law itself; gamma is the
			// paper's unit/visit-ratio gauge outside it, so compare in the
			// gamma=1 gauge.
			p := tc.params
			p.Gamma = 1
			nb, ok := p.OptimalConcurrencyInt()
			if !ok {
				t.Fatalf("params %+v have no interior optimum", p)
			}
			got, chk := stationRun(t, p, server.ServiceDistribution(0), nb, nb, 0, 1)
			requireClean(t, chk)
			want := p.Throughput(float64(nb), 1)
			if err := relErr(got, want); err > 0.05 {
				t.Fatalf("throughput at N_b=%d: sim %.2f vs Eq.7 %.2f (err %.1f%%, want <= 5%%)",
					nb, got, want, err*100)
			}
		})
	}
}

// TestRandomizedMVAConformance sweeps seeded pseudo-random configurations
// over Table I-range service laws, pool sizes, populations, think times
// and per-request demands, and cross-validates simulated steady-state
// throughput against the exact load-dependent MVA solution of the
// equivalent closed network. Exponential service keeps MVA exact (BCMP),
// so disagreement beyond the statistical tolerance means the simulator's
// service law or queueing discipline drifted from the model.
func TestRandomizedMVAConformance(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long steady-state sweeps")
	}
	thinks := []time.Duration{0, 200 * time.Millisecond, time.Second}
	demands := []float64{0.5, 1, 2}
	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("case-%d", i), func(t *testing.T) {
			t.Parallel()
			r := rng.New(uint64(1000 + i)).Split("conformance")
			s0 := math.Exp(r.Uniform(math.Log(1e-4), math.Log(3e-3)))
			alpha := r.Uniform(0, 0.8) * s0
			beta := math.Exp(r.Uniform(math.Log(1e-8), math.Log(1e-5)))
			params := model.Params{S0: s0, Alpha: alpha, Beta: beta, Gamma: 1}
			pool := 4 + r.Intn(61)           // 4..64
			users := pool/2 + r.Intn(2*pool) // pool/2 .. 5*pool/2
			if users < 1 {
				users = 1
			}
			think := thinks[r.Intn(len(thinks))]
			demand := demands[r.Intn(len(demands))]

			got, chk := stationRun(t, params, server.DistExponential, pool, users, think, demand)
			requireClean(t, chk)

			// The sim scales a request's base work by demand:
			// S_d(j) = S*(j) + (demand-1)*S0. Hand MVA the same law.
			service := func(j int) float64 {
				return params.ServiceTime(float64(j)) + (demand-1)*params.S0
			}
			results, err := mva.Solve(mva.Network{
				ThinkTime: think.Seconds(),
				Stations:  []mva.Station{mva.PooledStation("station", 1, pool, service)},
			}, users)
			if err != nil {
				t.Fatal(err)
			}
			want := results[len(results)-1].Throughput
			if err := relErr(got, want); err > 0.10 {
				t.Fatalf("S0=%.2e alpha=%.2e beta=%.2e pool=%d users=%d think=%v demand=%v: "+
					"sim %.2f vs MVA %.2f (err %.1f%%, want <= 10%%)",
					s0, alpha, beta, pool, users, think, demand, got, want, err*100)
			}
		})
	}
}

// relErr returns |got-want|/want (Inf for want = 0 and got != 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / want
}
