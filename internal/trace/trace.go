// Package trace represents workload traces: the number of concurrent users
// as a step function of time. Traces drive the revised RUBBoS client
// emulator (internal/workload) exactly as the trace files of Gandhi et al.
// drive the emulator in the paper.
//
// The published "Large Variation" trace itself is not redistributable, so
// SynthesizeLargeVariation generates a reproducible synthetic trace with the
// same qualitative structure (three large bursts over a ~10 minute horizon);
// see DESIGN.md for the substitution rationale.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcm/internal/rng"
)

// Point is one step of the trace: from At onwards, Users clients are active.
type Point struct {
	At    time.Duration `json:"at"`
	Users int           `json:"users"`
}

// Trace is a piecewise-constant user population over time. A Trace is
// immutable after construction.
type Trace struct {
	name   string
	points []Point
}

// ErrEmpty is returned when constructing or parsing a trace with no points.
var ErrEmpty = errors.New("trace: no points")

// New builds a trace from points. Points are sorted by time; negative user
// counts are clamped to zero. The first point is re-anchored to time zero so
// a trace always defines U(t) for all t >= 0.
func New(name string, points []Point) (*Trace, error) {
	if len(points) == 0 {
		return nil, ErrEmpty
	}
	ps := make([]Point, len(points))
	copy(ps, points)
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].At < ps[j].At })
	for i := range ps {
		if ps[i].Users < 0 {
			ps[i].Users = 0
		}
	}
	ps[0].At = 0
	return &Trace{name: name, points: ps}, nil
}

// Name returns the trace name.
func (t *Trace) Name() string { return t.name }

// Points returns a copy of the trace's step points.
func (t *Trace) Points() []Point {
	out := make([]Point, len(t.points))
	copy(out, t.points)
	return out
}

// Duration returns the time of the last step point.
func (t *Trace) Duration() time.Duration {
	return t.points[len(t.points)-1].At
}

// UsersAt returns the user population at time at.
func (t *Trace) UsersAt(at time.Duration) int {
	// Find the last point with At <= at.
	i := sort.Search(len(t.points), func(i int) bool { return t.points[i].At > at })
	if i == 0 {
		return t.points[0].Users
	}
	return t.points[i-1].Users
}

// MaxUsers returns the largest user population in the trace.
func (t *Trace) MaxUsers() int {
	maxU := 0
	for _, p := range t.points {
		if p.Users > maxU {
			maxU = p.Users
		}
	}
	return maxU
}

// MeanUsers returns the time-weighted mean population over the trace
// duration (the final step is given zero weight, as its duration is
// undefined).
func (t *Trace) MeanUsers() float64 {
	total := t.Duration().Seconds()
	if total <= 0 {
		return float64(t.points[0].Users)
	}
	area := 0.0
	for i := 0; i+1 < len(t.points); i++ {
		dt := (t.points[i+1].At - t.points[i].At).Seconds()
		area += float64(t.points[i].Users) * dt
	}
	return area / total
}

// Scale returns a copy of the trace with every population multiplied by
// factor (rounded to nearest, clamped at zero).
func (t *Trace) Scale(factor float64) *Trace {
	ps := t.Points()
	for i := range ps {
		ps[i].Users = int(math.Round(float64(ps[i].Users) * factor))
		if ps[i].Users < 0 {
			ps[i].Users = 0
		}
	}
	out, _ := New(t.name+"-scaled", ps) // len(ps) > 0, cannot fail
	return out
}

// WriteCSV writes the trace in "seconds,users" form with a header line.
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("seconds,users\n"); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, p := range t.points {
		line := strconv.FormatFloat(p.At.Seconds(), 'f', 3, 64) + "," + strconv.Itoa(p.Users) + "\n"
		if _, err := bw.WriteString(line); err != nil {
			return fmt.Errorf("trace: write point: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ParseCSV reads a trace in "seconds,users" form. Blank lines, comment
// lines starting with '#', and a leading header are ignored.
func ParseCSV(name string, r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	var points []Point
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if lineNo == 1 && strings.HasPrefix(strings.ToLower(line), "seconds") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time: %w", lineNo, err)
		}
		users, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad users: %w", lineNo, err)
		}
		points = append(points, Point{
			At:    time.Duration(secs * float64(time.Second)),
			Users: users,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return New(name, points)
}

// Burst describes one workload burst in a synthetic trace.
type Burst struct {
	Start time.Duration // when the ramp-up begins
	Peak  int           // user population at the top of the burst
	Ramp  time.Duration // duration of the up/down ramps
	Hold  time.Duration // duration spent at the peak
}

// SynthesisConfig parameterizes synthetic trace generation.
type SynthesisConfig struct {
	// Name of the resulting trace.
	Name string
	// Duration of the trace.
	Duration time.Duration
	// Base user population between bursts.
	Base int
	// Step between trace points.
	Step time.Duration
	// Bursts to overlay on the base population.
	Bursts []Burst
	// Jitter is the relative standard deviation of multiplicative noise on
	// each point (0 disables noise).
	Jitter float64
	// Seed drives the jitter.
	Seed uint64
}

// Synthesize generates a piecewise-constant trace: base population, plus a
// trapezoidal contribution from each burst, plus optional lognormal jitter.
func Synthesize(cfg SynthesisConfig) (*Trace, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("trace: non-positive duration %v", cfg.Duration)
	}
	step := cfg.Step
	if step <= 0 {
		step = time.Second
	}
	r := rng.New(cfg.Seed)
	var points []Point
	for at := time.Duration(0); at <= cfg.Duration; at += step {
		users := float64(cfg.Base)
		for _, b := range cfg.Bursts {
			users += burstContribution(b, at)
		}
		if cfg.Jitter > 0 {
			sigma := cfg.Jitter
			users *= r.LogNormal(-sigma*sigma/2, sigma)
		}
		points = append(points, Point{At: at, Users: int(math.Round(users))})
	}
	return New(cfg.Name, points)
}

// burstContribution returns the extra users burst b contributes at time at,
// as a trapezoid: linear ramp up over Ramp, hold at Peak for Hold, linear
// ramp down over Ramp.
func burstContribution(b Burst, at time.Duration) float64 {
	if b.Peak <= 0 || at < b.Start {
		return 0
	}
	ramp := b.Ramp
	if ramp <= 0 {
		ramp = time.Nanosecond
	}
	upEnd := b.Start + ramp
	holdEnd := upEnd + b.Hold
	downEnd := holdEnd + ramp
	switch {
	case at < upEnd:
		return float64(b.Peak) * float64(at-b.Start) / float64(ramp)
	case at < holdEnd:
		return float64(b.Peak)
	case at < downEnd:
		return float64(b.Peak) * float64(downEnd-at) / float64(ramp)
	default:
		return 0
	}
}

// SynthesizeLargeVariation generates the stand-in for the "Large Variation"
// trace of Gandhi et al. used in §V-B: a ~600 s trace with a moderate base
// population and three large bursts centred near 60 s, 220 s and 530 s —
// the three incidents the paper discusses (Tomcat scale-out, joint
// Tomcat+MySQL scale-out, and the post-scale-in flood).
func SynthesizeLargeVariation(seed uint64) *Trace {
	tr, err := Synthesize(SynthesisConfig{
		Name:     "large-variation",
		Duration: 600 * time.Second,
		Base:     400,
		Step:     5 * time.Second,
		Jitter:   0.05,
		Seed:     seed,
		Bursts: []Burst{
			{Start: 50 * time.Second, Peak: 1400, Ramp: 15 * time.Second, Hold: 60 * time.Second},
			{Start: 210 * time.Second, Peak: 2600, Ramp: 20 * time.Second, Hold: 90 * time.Second},
			{Start: 380 * time.Second, Peak: 700, Ramp: 20 * time.Second, Hold: 40 * time.Second},
			{Start: 520 * time.Second, Peak: 2000, Ramp: 10 * time.Second, Hold: 50 * time.Second},
		},
	})
	if err != nil {
		// Static configuration with positive duration cannot fail.
		panic("trace: SynthesizeLargeVariation: " + err.Error())
	}
	return tr
}

// SynthesizeStep generates a simple two-level step trace, useful in tests.
func SynthesizeStep(name string, low, high int, stepAt, total time.Duration) (*Trace, error) {
	if total <= 0 || stepAt < 0 || stepAt > total {
		return nil, fmt.Errorf("trace: bad step trace bounds stepAt=%v total=%v", stepAt, total)
	}
	return New(name, []Point{
		{At: 0, Users: low},
		{At: stepAt, Users: high},
		{At: total, Users: high},
	})
}

// SynthesizeSine generates a sinusoidal diurnal-style trace with the given
// mean, amplitude and period.
func SynthesizeSine(name string, mean, amplitude int, period, total, step time.Duration) (*Trace, error) {
	if total <= 0 || period <= 0 {
		return nil, fmt.Errorf("trace: bad sine trace period=%v total=%v", period, total)
	}
	if step <= 0 {
		step = time.Second
	}
	var points []Point
	for at := time.Duration(0); at <= total; at += step {
		phase := 2 * math.Pi * float64(at) / float64(period)
		u := float64(mean) + float64(amplitude)*math.Sin(phase)
		points = append(points, Point{At: at, Users: int(math.Round(math.Max(0, u)))})
	}
	return New(name, points)
}
