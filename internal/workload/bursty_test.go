package workload

import (
	"errors"
	"math"
	"testing"
	"time"

	"dcm/internal/rng"
	"dcm/internal/sim"
)

func TestNewBurstyLoopValidation(t *testing.T) {
	t.Parallel()
	eng, tgt := setup(t, time.Millisecond)
	r := rng.New(1)
	good := BurstyConfig{
		Users: 10, NormalThink: time.Second, SurgeThink: 50 * time.Millisecond,
		NormalDwell: 30 * time.Second, SurgeDwell: 5 * time.Second,
	}
	if _, err := NewBurstyLoop(eng, r, tgt, good); err != nil {
		t.Fatal(err)
	}
	bad := []func(*BurstyConfig){
		func(c *BurstyConfig) { c.Users = 0 },
		func(c *BurstyConfig) { c.NormalThink = 0 },
		func(c *BurstyConfig) { c.SurgeThink = 0 },
		func(c *BurstyConfig) { c.SurgeThink = 2 * time.Second }, // > normal
		func(c *BurstyConfig) { c.NormalDwell = 0 },
		func(c *BurstyConfig) { c.SurgeDwell = -time.Second },
	}
	for i, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := NewBurstyLoop(eng, r, tgt, cfg); !errors.Is(err, ErrBadWorkload) {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := NewBurstyLoop(nil, r, tgt, good); !errors.Is(err, ErrBadWorkload) {
		t.Error("nil engine accepted")
	}
}

// measureIoD runs a generator against an instant target and returns the
// index of dispersion of per-second completion counts.
func measureIoD(t *testing.T, bursty bool) float64 {
	t.Helper()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, delay: time.Millisecond}
	r := rng.New(77).Split("wl")

	var counts []float64
	var lastTotal int

	if bursty {
		bl, err := NewBurstyLoop(eng, r, tgt, BurstyConfig{
			Users:       200,
			NormalThink: 4 * time.Second,
			SurgeThink:  200 * time.Millisecond,
			NormalDwell: 40 * time.Second,
			SurgeDwell:  10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		bl.Start()
	} else {
		cl, err := NewClosedLoop(eng, r, tgt, ClosedLoopConfig{
			Users: 200, ThinkTime: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cl.Start()
	}
	stop := eng.Ticker(time.Second, func() {
		tt := tgt.completed
		counts = append(counts, float64(tt-lastTotal))
		lastTotal = tt
	})
	defer stop()
	if err := eng.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Drop the warmup minute.
	return indexOfDispersion(counts[60:])
}

// TestBurstinessInjection: the Markov-modulated users must produce a far
// more dispersed arrival process than the plain closed loop — the whole
// point of Mi et al.'s model.
func TestBurstinessInjection(t *testing.T) {
	t.Parallel()
	smooth := measureIoD(t, false)
	bursty := measureIoD(t, true)
	if smooth > 3 {
		t.Fatalf("plain closed loop unexpectedly bursty: IoD = %v", smooth)
	}
	if bursty < 5*smooth {
		t.Fatalf("burstiness injection weak: IoD %v vs smooth %v", bursty, smooth)
	}
}

func TestBurstyLoopStops(t *testing.T) {
	t.Parallel()
	eng := sim.NewEngine()
	tgt := &fakeTarget{eng: eng, delay: time.Millisecond}
	bl, err := NewBurstyLoop(eng, rng.New(3).Split("wl"), tgt, BurstyConfig{
		Users: 20, NormalThink: 100 * time.Millisecond, SurgeThink: 10 * time.Millisecond,
		NormalDwell: time.Second, SurgeDwell: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	bl.Start()
	bl.Start() // idempotent
	eng.Schedule(5*time.Second, bl.Stop)
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after := tgt.completed
	if after == 0 {
		t.Fatal("no requests before stop")
	}
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tgt.completed != after {
		t.Fatal("requests after Stop")
	}
}

func TestIndexOfDispersion(t *testing.T) {
	t.Parallel()
	if got := indexOfDispersion(nil); got != 0 {
		t.Fatalf("empty IoD = %v", got)
	}
	if got := indexOfDispersion([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("zero-mean IoD = %v", got)
	}
	// Constant counts: variance 0.
	if got := indexOfDispersion([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("constant IoD = %v", got)
	}
	// Hand-computed: counts {0, 10}: mean 5, var 25, IoD 5.
	if got := indexOfDispersion([]float64{0, 10}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("IoD = %v, want 5", got)
	}
}

// indexOfDispersion computes the variance-to-mean ratio of per-interval
// counts — the burstiness metric Mi et al. control. A Poisson-like stream
// has IoD ≈ 1; bursty streams are far above.
func indexOfDispersion(counts []float64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, c := range counts {
		sum += c
		sumSq += c * c
	}
	n := float64(len(counts))
	mean := sum / n
	if mean == 0 {
		return 0
	}
	variance := sumSq/n - mean*mean
	return variance / mean
}
