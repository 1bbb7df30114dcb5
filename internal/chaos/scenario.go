package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"dcm/internal/ntier"
)

// Scenario files are JSON with human-readable durations:
//
//	{
//	  "name": "tomcat-crash-midramp",
//	  "faults": [
//	    {"kind": "vm-crash", "at": "4m", "tier": "app"},
//	    {"kind": "monitor-blackout", "at": "3m30s", "duration": "45s"}
//	  ]
//	}
//
// Fault marshals to and from this form (Go durations like "4m" or "45s"),
// so schedules round-trip through files without exposing nanosecond
// integers.

// faultWire is the JSON representation of a Fault.
type faultWire struct {
	Kind     Kind    `json:"kind"`
	At       string  `json:"at"`
	Duration string  `json:"duration,omitempty"`
	Tier     string  `json:"tier,omitempty"`
	VM       string  `json:"vm,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
	Count    int     `json:"count,omitempty"`
}

// MarshalJSON implements json.Marshaler with duration strings.
func (f Fault) MarshalJSON() ([]byte, error) {
	w := faultWire{
		Kind:   f.Kind,
		At:     f.At.String(),
		Tier:   f.Tier,
		VM:     f.VM,
		Factor: f.Factor,
		Count:  f.Count,
	}
	if f.Duration != 0 {
		w.Duration = f.Duration.String()
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler, accepting duration strings.
// Unknown fields are rejected: a typoed field name ("faktor", "kindd")
// would otherwise silently decode to a fault that does something else
// than the scenario author intended.
func (f *Fault) UnmarshalJSON(data []byte) error {
	var w faultWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("chaos: fault: %w", err)
	}
	at, err := time.ParseDuration(w.At)
	if err != nil {
		return fmt.Errorf("chaos: fault %q: bad at %q: %w", w.Kind, w.At, err)
	}
	var dur time.Duration
	if w.Duration != "" {
		dur, err = time.ParseDuration(w.Duration)
		if err != nil {
			return fmt.Errorf("chaos: fault %q: bad duration %q: %w", w.Kind, w.Duration, err)
		}
	}
	*f = Fault{
		Kind:     w.Kind,
		At:       at,
		Duration: dur,
		Tier:     w.Tier,
		VM:       w.VM,
		Factor:   w.Factor,
		Count:    w.Count,
	}
	return nil
}

// Parse decodes and validates a JSON scenario. Decoding is strict:
// unknown fields — at the top level or inside a fault — are an error, and
// Validate then rejects unknown fault kinds and negative times with a
// message naming the offending fault.
func Parse(data []byte) (Schedule, error) {
	var s Schedule
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	// Trailing data after the scenario object means the file holds more
	// than the one schedule it is read as.
	if dec.More() {
		return Schedule{}, fmt.Errorf("chaos: parse scenario: unexpected data after scenario object")
	}
	if err := s.Validate(); err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// Load reads and validates a JSON scenario file.
func Load(path string) (Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Schedule{}, fmt.Errorf("chaos: %s: %w", path, err)
	}
	return s, nil
}

// Builtin scenarios, tuned for the large-variation workload trace
// (600 s, bursts ramping at roughly 50 s, 210 s, 380 s and 520 s).
var builtins = map[string]Schedule{
	// The acceptance scenario: a Tomcat-tier VM crashes in the middle of
	// the second burst's ramp, while the tier is already scaled out and
	// loaded. The controller must census the dead capacity and
	// re-provision before the burst peak.
	"tomcat-crash-midramp": {
		Name: "tomcat-crash-midramp",
		Faults: []Fault{
			{Kind: KindVMCrash, At: 240 * time.Second, Tier: ntier.TierApp},
		},
	},
	// Every launch during the first burst takes 4x longer to become
	// ready — exercising the VM-agent's watchdog/retry path and the cost
	// of the preparation period the paper's §V-B highlights.
	"slow-boot-storm": {
		Name: "slow-boot-storm",
		Faults: []Fault{
			{Kind: KindSlowBoot, At: 40 * time.Second, Duration: 180 * time.Second, Factor: 4},
		},
	},
	// One Tomcat's base service time triples for two minutes spanning a
	// burst: a noisy neighbour the CPU thresholds must compensate for.
	"degraded-tomcat": {
		Name: "degraded-tomcat",
		Faults: []Fault{
			{Kind: KindDegrade, At: 180 * time.Second, Duration: 120 * time.Second, Tier: ntier.TierApp, Factor: 3},
		},
	},
	// A connection leak eats 60 of a Tomcat's 80 DB connections during
	// the heaviest burst, repaired after 2 minutes.
	"leaky-pool": {
		Name: "leaky-pool",
		Faults: []Fault{
			{Kind: KindConnLeak, At: 200 * time.Second, Duration: 120 * time.Second, Count: 60},
		},
	},
	// Monitoring goes dark for 45 s across a burst onset: the controller
	// must hold rather than misread silence as idleness.
	"monitor-blackout": {
		Name: "monitor-blackout",
		Faults: []Fault{
			{Kind: KindBlackout, At: 200 * time.Second, Duration: 45 * time.Second},
		},
	},
	// Everything at once, spread across the trace.
	"kitchen-sink": {
		Name: "kitchen-sink",
		Faults: []Fault{
			{Kind: KindSlowBoot, At: 40 * time.Second, Duration: 120 * time.Second, Factor: 3},
			{Kind: KindDegrade, At: 120 * time.Second, Duration: 90 * time.Second, Tier: ntier.TierApp, Factor: 2.5},
			{Kind: KindVMCrash, At: 240 * time.Second, Tier: ntier.TierApp},
			{Kind: KindConnLeak, At: 300 * time.Second, Duration: 90 * time.Second, Count: 60},
			{Kind: KindBlackout, At: 520 * time.Second, Duration: 45 * time.Second},
		},
	},
}

// Builtin returns a named bundled scenario.
func Builtin(name string) (Schedule, error) {
	s, ok := builtins[name]
	if !ok {
		return Schedule{}, fmt.Errorf("chaos: unknown builtin scenario %q (have %v)", name, BuiltinNames())
	}
	return s, nil
}

// BuiltinNames lists the bundled scenarios in sorted order.
func BuiltinNames() []string {
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
