package lb

import (
	"errors"
	"testing"
)

// TestGuardSkipsRefusedBackends checks the breaker hook for both
// policies: guarded backends are skipped like draining ones, and picks
// flow to the remaining admissible backends.
func TestGuardSkipsRefusedBackends(t *testing.T) {
	t.Parallel()
	for _, policy := range []Policy{RoundRobin, LeastConnections} {
		b := New[*fake](policy)
		for _, n := range []string{"a", "b", "c"} {
			if err := b.Add(&fake{name: n, accepting: true}); err != nil {
				t.Fatal(err)
			}
		}
		b.SetGuard(func(be *fake) bool { return be.Name() != "b" })
		for i := 0; i < 6; i++ {
			picked, err := b.Pick()
			if err != nil {
				t.Fatalf("%v pick %d: %v", policy, i, err)
			}
			if picked.Name() == "b" {
				t.Fatalf("%v picked guarded backend", policy)
			}
		}
	}
}

// TestGuardAllRefusedReturnsErrGuarded distinguishes the two failure
// modes: all ready backends guarded is ErrGuarded (breaker open); no
// accepting backends at all stays ErrNoBackends (tier down).
func TestGuardAllRefusedReturnsErrGuarded(t *testing.T) {
	t.Parallel()
	for _, policy := range []Policy{RoundRobin, LeastConnections} {
		b := New[*fake](policy)
		up := &fake{name: "a", accepting: true}
		if err := b.Add(up); err != nil {
			t.Fatal(err)
		}
		b.SetGuard(func(*fake) bool { return false })
		if _, err := b.Pick(); !errors.Is(err, ErrGuarded) {
			t.Errorf("%v: err = %v, want ErrGuarded", policy, err)
		}
		up.accepting = false
		if _, err := b.Pick(); !errors.Is(err, ErrNoBackends) {
			t.Errorf("%v: err = %v, want ErrNoBackends for a down tier", policy, err)
		}
	}
}

// TestNilGuardIsIdentity pins the disabled path: clearing the guard
// restores the exact unguarded rotation.
func TestNilGuardIsIdentity(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	b.SetGuard(nil)
	want := []string{"a", "b", "a", "b"}
	for i, w := range want {
		picked, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if picked.Name() != w {
			t.Fatalf("pick %d = %s, want %s", i, picked.Name(), w)
		}
	}
}
