package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"dcm/internal/policy"
	"dcm/internal/rng"
)

func TestTableIOptima(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	// §V-A: N_b = 20 for Tomcat, 36 for MySQL.
	if nb, ok := tomcat.OptimalConcurrencyInt(); !ok || nb != 20 {
		t.Fatalf("tomcat N_b = %d (%v), want 20", nb, ok)
	}
	if nb, ok := mysql.OptimalConcurrencyInt(); !ok || nb != 36 {
		t.Fatalf("mysql N_b = %d (%v), want 36", nb, ok)
	}
}

func TestTableIMaxThroughput(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	// Table I: X_max = 946 (Tomcat), 865 (MySQL). Allow rounding slack since
	// the table rounds N_b.
	if x := tomcat.MaxThroughput(1); math.Abs(x-946) > 15 {
		t.Fatalf("tomcat Xmax = %v, want ~946", x)
	}
	if x := mysql.MaxThroughput(1); math.Abs(x-865) > 15 {
		t.Fatalf("mysql Xmax = %v, want ~865", x)
	}
}

func TestServiceTimeEquation5(t *testing.T) {
	t.Parallel()
	p := Params{S0: 0.01, Alpha: 0.002, Beta: 0.0001, Gamma: 1}
	// N=1 must reduce to the single-threaded case.
	if got := p.ServiceTime(1); got != 0.01 {
		t.Fatalf("S*(1) = %v, want S0", got)
	}
	// N=3: 0.01 + 0.002*2 + 0.0001*3*2 = 0.0146
	if got := p.ServiceTime(3); math.Abs(got-0.0146) > 1e-12 {
		t.Fatalf("S*(3) = %v", got)
	}
	// Below 1 clamps to 1.
	if got := p.ServiceTime(0); got != 0.01 {
		t.Fatalf("S*(0) = %v, want S0", got)
	}
}

func TestEffectiveServiceTimeMinimumAtNb(t *testing.T) {
	t.Parallel()
	p := Params{S0: 0.0284, Alpha: 0.00987, Beta: 4.54e-5, Gamma: 1}
	nb, ok := p.OptimalConcurrency()
	if !ok {
		t.Fatal("no optimum")
	}
	sOpt := p.EffectiveServiceTime(nb)
	for _, n := range []float64{nb / 2, nb * 0.9, nb * 1.1, nb * 2} {
		if p.EffectiveServiceTime(n) < sOpt-1e-15 {
			t.Fatalf("S_b(%v) < S_b(N_b): optimum is not a minimum", n)
		}
	}
}

func TestThroughputScalesWithServers(t *testing.T) {
	t.Parallel()
	p := Params{S0: 0.01, Alpha: 0.001, Beta: 1e-5, Gamma: 2}
	x1 := p.Throughput(10, 1)
	x3 := p.Throughput(10, 3)
	if math.Abs(x3-3*x1) > 1e-9 {
		t.Fatalf("throughput not linear in K: %v vs %v", x1, x3)
	}
	if p.Throughput(10, 0) != 0 || p.Throughput(0.5, 1) != 0 {
		t.Fatal("out-of-domain throughput not zero")
	}
}

func TestOptimalConcurrencyDegenerate(t *testing.T) {
	t.Parallel()
	if _, ok := (Params{S0: 0.01, Alpha: 0, Beta: 0, Gamma: 1}).OptimalConcurrency(); ok {
		t.Fatal("beta=0 reported an optimum")
	}
	if _, ok := (Params{S0: 0.01, Alpha: 0.02, Beta: 1e-5, Gamma: 1}).OptimalConcurrency(); ok {
		t.Fatal("alpha>=S0 reported an optimum")
	}
	if x := (Params{S0: 0.01, Alpha: 0, Beta: 0, Gamma: 1}).MaxThroughput(1); x != 0 {
		t.Fatalf("degenerate MaxThroughput = %v", x)
	}
}

func TestOptimalConcurrencyIntFloor(t *testing.T) {
	t.Parallel()
	// Tiny optimum rounds up to at least 1.
	p := Params{S0: 0.01, Alpha: 0.0099, Beta: 1, Gamma: 1}
	nb, ok := p.OptimalConcurrencyInt()
	if !ok || nb != 1 {
		t.Fatalf("nb = %d, %v", nb, ok)
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	good := Params{S0: 0.01, Alpha: 0.001, Beta: 1e-6, Gamma: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{S0: 0, Alpha: 0.001, Beta: 1e-6, Gamma: 1},
		{S0: 0.01, Alpha: -1, Beta: 1e-6, Gamma: 1},
		{S0: 0.01, Alpha: 0.001, Beta: -1, Gamma: 1},
		{S0: 0.01, Alpha: 0.001, Beta: 1e-6, Gamma: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// synthObservations samples Equation 7 with optional multiplicative noise.
func synthObservations(p Params, servers int, noise float64, seed uint64) []Observation {
	r := rng.New(seed)
	var obs []Observation
	for _, n := range []float64{
		1, 2, 3, 5, 8, 12, 16, 20, 25, 30, 40, 50, 60, 80, 100,
		130, 160, 200, 250, 300, 400, 500, 600,
	} {
		x := p.Throughput(n, servers)
		if noise > 0 {
			x *= 1 + r.Normal(0, noise)
		}
		obs = append(obs, Observation{Concurrency: n, Throughput: x})
	}
	return obs
}

func TestTrainRecoversTomcatModel(t *testing.T) {
	t.Parallel()
	tomcat, _ := TableI()
	obs := synthObservations(tomcat, 1, 0, 1)
	res, err := Train(obs, TrainOptions{KnownS0: tomcat.S0, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalN != 20 {
		t.Fatalf("recovered N_b = %d, want 20", res.OptimalN)
	}
	if res.RSquared < 0.9999 {
		t.Fatalf("r2 = %v", res.RSquared)
	}
	if math.Abs(res.Params.Alpha-tomcat.Alpha)/tomcat.Alpha > 0.01 {
		t.Fatalf("alpha = %v, want %v", res.Params.Alpha, tomcat.Alpha)
	}
	if math.Abs(res.Params.Gamma-tomcat.Gamma)/tomcat.Gamma > 0.01 {
		t.Fatalf("gamma = %v, want %v", res.Params.Gamma, tomcat.Gamma)
	}
	if math.Abs(res.MaxThroughput-946) > 15 {
		t.Fatalf("Xmax = %v, want ~946", res.MaxThroughput)
	}
}

func TestTrainRecoversMySQLModelWithNoise(t *testing.T) {
	t.Parallel()
	_, mysql := TableI()
	obs := synthObservations(mysql, 1, 0.015, 7)
	res, err := Train(obs, TrainOptions{KnownS0: mysql.S0, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalN < 31 || res.OptimalN > 41 {
		t.Fatalf("recovered N_b = %d, want 36±5", res.OptimalN)
	}
	if res.RSquared < 0.95 {
		t.Fatalf("r2 = %v, want >= 0.95 (Table I reports 0.97)", res.RSquared)
	}
}

func TestTrainNormalizedGauge(t *testing.T) {
	t.Parallel()
	tomcat, _ := TableI()
	obs := synthObservations(tomcat, 1, 0, 1)
	res, err := Train(obs, TrainOptions{}) // no S0 anchor: gamma = 1 gauge
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Params.Gamma-1) > 1e-9 {
		t.Fatalf("gamma = %v, want 1 in normalized gauge", res.Params.Gamma)
	}
	// N_b is gauge-invariant and must still be recovered.
	if res.OptimalN != 20 {
		t.Fatalf("N_b = %d, want 20", res.OptimalN)
	}
}

func TestTrainMultiServer(t *testing.T) {
	t.Parallel()
	_, mysql := TableI()
	obs := synthObservations(mysql, 2, 0, 3)
	res, err := Train(obs, TrainOptions{KnownS0: mysql.S0, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.OptimalN < 34 || res.OptimalN > 38 {
		t.Fatalf("N_b = %d, want ~36", res.OptimalN)
	}
	if math.Abs(res.MaxThroughput-2*865) > 30 {
		t.Fatalf("Xmax = %v, want ~1730 with K=2", res.MaxThroughput)
	}
}

func TestTrainErrors(t *testing.T) {
	t.Parallel()
	if _, err := Train(nil, TrainOptions{}); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("err = %v", err)
	}
	bad := []Observation{{1, 10}, {2, 20}, {0.5, 5}, {4, 30}}
	if _, err := Train(bad, TrainOptions{}); err == nil {
		t.Fatal("out-of-domain concurrency accepted")
	}
	neg := []Observation{{1, 10}, {2, -1}, {3, 5}, {4, 30}}
	if _, err := Train(neg, TrainOptions{}); err == nil {
		t.Fatal("non-positive throughput accepted")
	}
}

func TestTrainMonotoneCurveNoOptimum(t *testing.T) {
	t.Parallel()
	// A curve with no contention at all: X grows monotonically, so the
	// fitted beta collapses to ~0 and Train must report ErrNoOptimum.
	p := Params{S0: 0.01, Alpha: 0, Beta: 0, Gamma: 1}
	obs := synthObservations(p, 1, 0, 1)
	_, err := Train(obs, TrainOptions{})
	if !errors.Is(err, ErrNoOptimum) {
		t.Fatalf("err = %v, want ErrNoOptimum", err)
	}
}

// TestTrainGaugeInvarianceProperty: scaling all four parameters by the same
// factor leaves the throughput curve, and hence the recovered N_b, fixed.
func TestTrainGaugeInvarianceProperty(t *testing.T) {
	t.Parallel()
	prop := func(scaleRaw uint8) bool {
		scale := 0.5 + float64(scaleRaw)/64.0
		tomcat, _ := TableI()
		scaled := Params{
			S0:    tomcat.S0 * scale,
			Alpha: tomcat.Alpha * scale,
			Beta:  tomcat.Beta * scale,
			Gamma: tomcat.Gamma * scale,
		}
		for _, n := range []float64{1, 10, 20, 50} {
			if math.Abs(scaled.Throughput(n, 1)-tomcat.Throughput(n, 1)) > 1e-6 {
				return false
			}
		}
		nbA, _ := scaled.OptimalConcurrency()
		nbB, _ := tomcat.OptimalConcurrency()
		return math.Abs(nbA-nbB) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDemandBottleneck(t *testing.T) {
	t.Parallel()
	demands := []Demand{
		{Tier: "web", VisitRatio: 1, ServiceTime: 0.001, Servers: 1},
		{Tier: "app", VisitRatio: 1, ServiceTime: 0.0284, Servers: 1},
		{Tier: "db", VisitRatio: 2, ServiceTime: 0.00719, Servers: 1},
	}
	idx, d := Bottleneck(demands)
	if idx != 1 {
		t.Fatalf("bottleneck = %d (%v), want app", idx, d)
	}
	// Doubling the app tier shifts the bottleneck to the DB (the Fig. 2(b)
	// scenario).
	demands[1].Servers = 2
	idx, _ = Bottleneck(demands)
	if idx != 2 {
		t.Fatalf("bottleneck after scale-out = %d, want db", idx)
	}
}

func TestBottleneckEmpty(t *testing.T) {
	t.Parallel()
	if idx, _ := Bottleneck(nil); idx != -1 {
		t.Fatalf("idx = %d", idx)
	}
	if x := MaxSystemThroughput(nil); x != 0 {
		t.Fatalf("x = %v", x)
	}
}

func TestMaxSystemThroughput(t *testing.T) {
	t.Parallel()
	demands := []Demand{
		{Tier: "app", VisitRatio: 1, ServiceTime: 0.02, Servers: 1},
		{Tier: "db", VisitRatio: 2, ServiceTime: 0.005, Servers: 1},
	}
	// Bottleneck demand = 0.02 → X_max = 50.
	if x := MaxSystemThroughput(demands); math.Abs(x-50) > 1e-9 {
		t.Fatalf("x = %v, want 50", x)
	}
}

func TestPerServerDemandClampsServers(t *testing.T) {
	t.Parallel()
	d := Demand{VisitRatio: 2, ServiceTime: 0.01, Servers: 0}
	if got := d.PerServerDemand(); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("demand = %v", got)
	}
}

func TestPlanAllocation111(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	alloc, _, err := PlanAllocation(AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 1, DBServers: 1,
	}, policy.Default().Allocation)
	if err != nil {
		t.Fatal(err)
	}
	// §V-A: optimal 1/1/1 allocation is 1000/20/36 (paper validates 20 for
	// Tomcat and 36 for MySQL).
	if alloc.AppThreadsPerServer != 20 {
		t.Fatalf("app threads = %d, want 20", alloc.AppThreadsPerServer)
	}
	if alloc.DBConnsPerAppServer != 36 {
		t.Fatalf("db conns = %d, want 36", alloc.DBConnsPerAppServer)
	}
	if alloc.WebThreadsPerServer != 1000 {
		t.Fatalf("web threads = %d", alloc.WebThreadsPerServer)
	}
}

func TestPlanAllocation121SplitsConnPool(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	alloc, _, err := PlanAllocation(AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 2, DBServers: 1,
	}, policy.Default().Allocation)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4(b): with two Tomcats, each gets half of 36 → 18.
	if alloc.DBConnsPerAppServer != 18 {
		t.Fatalf("db conns = %d, want 18", alloc.DBConnsPerAppServer)
	}
}

func TestPlanAllocationScalesWithDBServers(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	alloc, _, err := PlanAllocation(AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 2, DBServers: 2,
	}, policy.Default().Allocation)
	if err != nil {
		t.Fatal(err)
	}
	// Total MySQL concurrency should be 36 per DB server: 72/2 Tomcats = 36.
	if alloc.DBConnsPerAppServer != 36 {
		t.Fatalf("db conns = %d, want 36", alloc.DBConnsPerAppServer)
	}
}

func TestPlanAllocationHeadroom(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	rules := policy.Default().Allocation
	rules.Headroom = 1.5
	alloc, _, err := PlanAllocation(AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 1, DBServers: 1,
	}, rules)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.AppThreadsPerServer != 30 {
		t.Fatalf("app threads with headroom = %d, want 30", alloc.AppThreadsPerServer)
	}
}

func TestPlanAllocationErrors(t *testing.T) {
	t.Parallel()
	tomcat, mysql := TableI()
	rules := policy.Default().Allocation
	if _, _, err := PlanAllocation(AllocationInput{Tomcat: tomcat, MySQL: mysql}, rules); err == nil {
		t.Fatal("zero topology accepted")
	}
	flat := Params{S0: 0.01, Alpha: 0, Beta: 0, Gamma: 1}
	_, _, err := PlanAllocation(AllocationInput{
		Tomcat: flat, MySQL: mysql,
		WebServers: 1, AppServers: 1, DBServers: 1,
	}, rules)
	if !errors.Is(err, ErrNoOptimum) {
		t.Fatalf("err = %v, want ErrNoOptimum", err)
	}
	rules.AppThreadsFloor = 0
	_, _, err = PlanAllocation(AllocationInput{
		Tomcat: tomcat, MySQL: mysql,
		WebServers: 1, AppServers: 1, DBServers: 1,
	}, rules)
	if !errors.Is(err, policy.ErrBadRules) {
		t.Fatalf("err = %v, want policy.ErrBadRules", err)
	}
}

func TestAllocationString(t *testing.T) {
	t.Parallel()
	a := Allocation{WebThreadsPerServer: 1000, AppThreadsPerServer: 20, DBConnsPerAppServer: 36}
	if got := a.String(); got != "1000/20/36" {
		t.Fatalf("String = %q", got)
	}
}

func TestPlanAllocationNeverZeroPools(t *testing.T) {
	t.Parallel()
	prop := func(appRaw, dbRaw uint8) bool {
		app := int(appRaw%20) + 1
		db := int(dbRaw%20) + 1
		tomcat, mysql := TableI()
		alloc, _, err := PlanAllocation(AllocationInput{
			Tomcat: tomcat, MySQL: mysql,
			WebServers: 1, AppServers: app, DBServers: db,
		}, policy.Default().Allocation)
		if err != nil {
			return false
		}
		return alloc.AppThreadsPerServer >= 1 && alloc.DBConnsPerAppServer >= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
