package ntier

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"dcm/internal/graph"
	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestDefaultServletsNormalized(t *testing.T) {
	t.Parallel()
	mix := DefaultServlets()
	if len(mix) != 10 {
		t.Fatalf("mix size = %d", len(mix))
	}
	cfg := fastConfig()
	cfg.Classes = mix
	if _, err := New(sim.NewEngine(), rng.New(1), cfg); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range mix {
		total += s.Weight
	}
	var meanDemand, meanQueries float64
	for _, s := range mix {
		meanDemand += s.Weight * s.Profile.NodeDemand[TierApp] / total
		meanQueries += s.Weight * float64(s.Profile.EdgeVisits[TierApp+"->"+TierDB]) / total
	}
	// The mix must match the single-class calibration in the mean.
	if math.Abs(meanDemand-1.0) > 0.03 {
		t.Fatalf("mean app demand = %v, want ~1.0", meanDemand)
	}
	if math.Abs(meanQueries-2.0) > 0.05 {
		t.Fatalf("mean queries = %v, want ~2.0", meanQueries)
	}
}

func TestValidateServletsRejectsBadMixes(t *testing.T) {
	t.Parallel()
	bad := [][]graph.Class{
		{servlet("", 1, 1, 0, 0)},
		{servlet("a", 1, 1, 0, 0), servlet("b", 0, 1, 0, 0)},
		{servlet("a", 1, -1, 0, 0)},
		{servlet("a", 1, 1, -1, 0)},
		{servlet("a", 1, 1, 2, -1)},
		{servlet("a", 1, 1, 0, 0), servlet("a", 1, 1, 0, 0)},
	}
	for i, mix := range bad {
		cfg := fastConfig()
		cfg.Classes = mix
		if _, err := New(sim.NewEngine(), rng.New(1), cfg); !errors.Is(err, graph.ErrBadClass) {
			t.Errorf("mix %d: err = %v, want graph.ErrBadClass", i, err)
		}
	}
}

func TestNewRejectsBadServletMix(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{servlet("x", -1, 1, 0, 0)}
	eng := sim.NewEngine()
	if _, err := New(eng, rng.New(1), cfg); err == nil {
		t.Fatal("bad mix accepted")
	}
}

func TestServletMixDistribution(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{
		servlet("light", 3, 0.5, 1, 1),
		servlet("heavy", 1, 2.0, 3, 1),
	}
	eng, app := newApp(t, cfg)
	const total = 4000
	for i := 0; i < total; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	stats := app.ClassStats()
	light, heavy := stats[0], stats[1]
	if light.Completions+heavy.Completions != total {
		t.Fatalf("per-class totals %d + %d != %d", light.Completions, heavy.Completions, total)
	}
	share := float64(light.Completions) / total
	if math.Abs(share-0.75) > 0.03 {
		t.Fatalf("light share = %v, want ~0.75", share)
	}
	// Heavier servlet has a longer response time.
	if heavy.MeanRTms <= light.MeanRTms {
		t.Fatalf("heavy RT %v not above light RT %v", heavy.MeanRTms, light.MeanRTms)
	}
}

func TestServletQueriesRouteToDB(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = []graph.Class{servlet("q3", 1, 1, 3, 1)}
	eng, app := newApp(t, cfg)
	for i := 0; i < 10; i++ {
		app.Inject(nil)
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := app.Members(TierDB)[0].Server().TakeSample().Completions; got != 30 {
		t.Fatalf("db bursts = %d, want 10 requests x 3 queries", got)
	}
}

// TestServletMixPreservesMeanThroughput: a saturated system under the
// normalized default mix sustains roughly the same throughput as the
// single-class flow, because the mix's weighted means match.
func TestServletMixPreservesMeanThroughput(t *testing.T) {
	t.Parallel()
	measure := func(useMix bool) float64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.AppThreads = 20
		if useMix {
			cfg.Classes = DefaultServlets()
		}
		app, err := New(eng, rng.New(5).Split("app"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cycle func()
		cycle = func() { app.Inject(func(time.Duration, bool) { cycle() }) }
		for i := 0; i < 20; i++ {
			eng.Schedule(time.Duration(i)*time.Millisecond, cycle)
		}
		if err := eng.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		before := app.TotalCompletions()
		if err := eng.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		return float64(app.TotalCompletions()-before) / 15.0
	}
	single := measure(false)
	mixed := measure(true)
	if rel := mixed/single - 1; rel < -0.15 || rel > 0.15 {
		t.Fatalf("mix shifted throughput by %.0f%%: single=%v mixed=%v", rel*100, single, mixed)
	}
}

// TestServletMixDigestPin pins the per-class outcome of 4,000 weighted
// draws from the default servlet mix: the class sequence Inject draws and
// the demand each class runs at both reach ClassStats.
func TestServletMixDigestPin(t *testing.T) {
	t.Parallel()
	cfg := fastConfig()
	cfg.Classes = DefaultServlets()
	cfg.NoiseSigma = 0.1
	eng, app := newApp(t, cfg)
	for i := 0; i < 4000; i++ {
		eng.Schedule(time.Duration(i)*5*time.Millisecond, func() { app.Inject(nil) })
	}
	if err := eng.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	stats := app.ClassStats()
	for _, st := range stats {
		if st.Injected == 0 {
			t.Errorf("class %s never drawn", st.Name)
		}
	}
	data, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "2ca9401f940ecb98c7569d6894a32950644b5f57d00e3271316aadc9bcec1dec"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("ClassStats digest = %s, want %s", got, want)
	}
}
