package chaos

import (
	"errors"
	"strings"
	"testing"
)

// TestParseRejectsBadScenarios is the strict-parsing table: unknown fault
// kinds, negative times, and — crucially — unknown JSON fields must all be
// rejected with an error naming the problem, never silently dropped. A
// typoed "faktor" that decodes to a zero-factor fault is far worse than a
// parse error.
func TestParseRejectsBadScenarios(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		json     string
		wantErr  string // substring the error must mention
		badSched bool   // whether errors.Is(err, ErrBadSchedule) must hold
	}{
		{
			name:     "unknown fault kind",
			json:     `{"name":"x","faults":[{"kind":"meteor-strike","at":"10s"}]}`,
			wantErr:  "meteor-strike",
			badSched: true,
		},
		{
			name:     "negative injection time",
			json:     `{"name":"x","faults":[{"kind":"vm-crash","at":"-5s","tier":"app"}]}`,
			wantErr:  "negative injection time",
			badSched: true,
		},
		{
			name:     "negative duration",
			json:     `{"name":"x","faults":[{"kind":"degraded-server","at":"10s","duration":"-1m","tier":"app","factor":2}]}`,
			wantErr:  "negative duration",
			badSched: true,
		},
		{
			name:    "unknown fault-level field",
			json:    `{"name":"x","faults":[{"kind":"vm-crash","at":"10s","tier":"app","faktor":3}]}`,
			wantErr: "faktor",
		},
		{
			name:    "unknown top-level field",
			json:    `{"name":"x","fautls":[{"kind":"vm-crash","at":"10s","tier":"app"}]}`,
			wantErr: "fautls",
		},
		{
			name:     "empty fault list",
			json:     `{"name":"x","faults":[]}`,
			wantErr:  "no faults",
			badSched: true,
		},
		{
			name:    "trailing document",
			json:    `{"name":"a","faults":[{"kind":"vm-crash","at":"10s","tier":"app"}]} {"name":"b"}`,
			wantErr: "unexpected data after scenario object",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if tc.badSched && !errors.Is(err, ErrBadSchedule) {
				t.Fatalf("error %q is not ErrBadSchedule", err)
			}
		})
	}

	// And a valid scenario still parses.
	s, err := Parse([]byte(`{"name":"ok","faults":[{"kind":"vm-crash","at":"4m","tier":"app"}]}`))
	if err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	if s.Name != "ok" || len(s.Faults) != 1 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}
