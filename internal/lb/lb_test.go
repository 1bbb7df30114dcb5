package lb

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// fake is a controllable backend.
type fake struct {
	name      string
	accepting bool
	load      int
}

func (f *fake) Name() string    { return f.name }
func (f *fake) Accepting() bool { return f.accepting }
func (f *fake) Load() int       { return f.load }

func TestRoundRobinRotation(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b", "c"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 6; i++ {
		picked, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, picked.Name())
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v", got)
		}
	}
}

func TestRoundRobinSkipsDraining(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	down := &fake{name: "down", accepting: false}
	up := &fake{name: "up", accepting: true}
	if err := b.Add(down); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(up); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		picked, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if picked.Name() != "up" {
			t.Fatalf("picked draining backend on iteration %d", i)
		}
	}
}

func TestPickNoBackends(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	if _, err := b.Pick(); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("err = %v", err)
	}
	if err := b.Add(&fake{name: "x", accepting: false}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Pick(); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("all-draining err = %v", err)
	}
}

func TestLeastConnections(t *testing.T) {
	t.Parallel()
	b := New[*fake](LeastConnections)
	heavy := &fake{name: "heavy", accepting: true, load: 10}
	light := &fake{name: "light", accepting: true, load: 2}
	if err := b.Add(heavy); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(light); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		picked, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		if picked.Name() != "light" {
			t.Fatal("least-connections picked the heavier backend")
		}
	}
}

func TestLeastConnectionsSkipsDraining(t *testing.T) {
	t.Parallel()
	b := New[*fake](LeastConnections)
	idle := &fake{name: "idle", accepting: false, load: 0}
	busy := &fake{name: "busy", accepting: true, load: 100}
	if err := b.Add(idle); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(busy); err != nil {
		t.Fatal(err)
	}
	picked, err := b.Pick()
	if err != nil {
		t.Fatal(err)
	}
	if picked.Name() != "idle" && picked.Name() != "busy" {
		t.Fatalf("picked %q", picked.Name())
	}
	if picked.Name() == "idle" {
		t.Fatal("picked draining backend")
	}
}

func TestAddDuplicate(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	if err := b.Add(&fake{name: "a", accepting: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(&fake{name: "a", accepting: true}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if n := len(b.Backends()); n != 1 {
		t.Fatalf("len = %d", n)
	}
	picked, err := b.Pick()
	if err != nil {
		t.Fatal(err)
	}
	if picked.Name() != "b" {
		t.Fatalf("picked %q after removal", picked.Name())
	}
	if err := b.Remove("ghost"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("remove unknown err = %v", err)
	}
}

func TestRemoveDuringRotationStaysFair(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b", "c"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Advance rotation past "a".
	if _, err := b.Pick(); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove("a"); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Name()]++
	}
	if counts["b"] != 5 || counts["c"] != 5 {
		t.Fatalf("unfair after removal: %v", counts)
	}
}

func TestReadyCountAndBackends(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	if err := b.Add(&fake{name: "a", accepting: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(&fake{name: "b", accepting: false}); err != nil {
		t.Fatal(err)
	}
	if b.ReadyCount() != 1 {
		t.Fatalf("ReadyCount = %d", b.ReadyCount())
	}
	bs := b.Backends()
	if len(bs) != 2 || bs[0].Name() != "a" {
		t.Fatalf("Backends = %v", bs)
	}
}

func TestPickCounts(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]uint64{}
	for i := 0; i < 4; i++ {
		be, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		counts[be.Name()]++
	}
	if counts["a"] != 2 || counts["b"] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestUnknownPolicyFallsBackToRoundRobin(t *testing.T) {
	t.Parallel()
	b := New[*fake](Policy(99))
	if b.policy != RoundRobin {
		t.Fatalf("policy = %v", b.policy)
	}
}

func TestPolicyString(t *testing.T) {
	t.Parallel()
	if RoundRobin.String() != "roundrobin" || LeastConnections.String() != "leastconn" {
		t.Fatal("policy names wrong")
	}
	if Policy(7).String() != "policy(7)" {
		t.Fatalf("unknown policy string = %q", Policy(7).String())
	}
}

// TestRoundRobinFairnessProperty: over n*k picks of n ready backends, each
// backend is picked exactly k times.
func TestRoundRobinFairnessProperty(t *testing.T) {
	t.Parallel()
	prop := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := int(kRaw%16) + 1
		b := New[*fake](RoundRobin)
		for i := 0; i < n; i++ {
			if err := b.Add(&fake{name: string(rune('a' + i)), accepting: true}); err != nil {
				return false
			}
		}
		counts := map[string]uint64{}
		for i := 0; i < n*k; i++ {
			be, err := b.Pick()
			if err != nil {
				return false
			}
			counts[be.Name()]++
		}
		for _, c := range counts {
			if c != uint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddAfterRemoveLastResumesRotation is the cursor-staleness
// regression test: removing the backend the rotation cursor points at,
// when it occupies the last index, used to leave the cursor ==
// len(backends). A subsequent Add then placed the new backend exactly at
// the stale cursor, so the newcomer was served immediately and the wrap
// back to the first backend was skipped.
func TestAddAfterRemoveLastResumesRotation(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	for _, n := range []string{"a", "b", "c"} {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Advance the cursor to "c" (index 2), then remove it.
	for _, want := range []string{"a", "b"} {
		p, err := b.Pick()
		if err != nil || p.Name() != want {
			t.Fatalf("warmup pick = %v, %v (want %s)", p, err, want)
		}
	}
	if err := b.Remove("c"); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(&fake{name: "d", accepting: true}); err != nil {
		t.Fatal(err)
	}
	// The rotation owes index 0 a turn; the stale cursor served "d" here.
	var got []string
	for i := 0; i < 6; i++ {
		p, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.Name())
	}
	want := []string{"a", "b", "d", "a", "b", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-churn rotation = %v, want %v", got, want)
		}
	}
}

// TestAddRemoveChurnStaysFair hammers the balancer with add/remove churn
// at every cursor position and checks round-robin fairness afterwards:
// over k*len picks every backend must be picked exactly k times.
func TestAddRemoveChurnStaysFair(t *testing.T) {
	t.Parallel()
	b := New[*fake](RoundRobin)
	names := []string{"s0", "s1", "s2", "s3"}
	for _, n := range names {
		if err := b.Add(&fake{name: n, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Churn: walk the cursor to every position, remove the last-indexed
	// backend there, and add a replacement.
	for gen := 0; gen < 8; gen++ {
		for i := 0; i <= gen%4; i++ {
			if _, err := b.Pick(); err != nil {
				t.Fatal(err)
			}
		}
		bs := b.Backends()
		last := bs[len(bs)-1].Name()
		if err := b.Remove(last); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(&fake{name: fmt.Sprintf("g%d", gen), accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 5
	counts := map[string]int{}
	for i := 0; i < rounds*4; i++ {
		be, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		counts[be.Name()]++
	}
	for _, be := range b.Backends() {
		if got := counts[be.Name()]; got != rounds {
			t.Fatalf("backend %s picked %d times over %d rounds (counts %v)",
				be.Name(), got, rounds, counts)
		}
	}
}

// TestPickSessionStability: one key always lands on the same backend
// while the set is stable, and distinct keys spread across backends.
func TestPickSessionStability(t *testing.T) {
	b := New[*fake](RoundRobin)
	for _, name := range []string{"a", "b", "c"} {
		if err := b.Add(&fake{name: name, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	homes := make(map[uint64]string)
	for key := uint64(1); key <= 200; key++ {
		first, err := b.PickSession(key)
		if err != nil {
			t.Fatal(err)
		}
		homes[key] = first.Name()
		for i := 0; i < 5; i++ {
			again, err := b.PickSession(key)
			if err != nil {
				t.Fatal(err)
			}
			if again.Name() != first.Name() {
				t.Fatalf("key %d moved %s -> %s with a stable set", key, first.Name(), again.Name())
			}
		}
	}
	byBackend := make(map[string]int)
	for _, home := range homes {
		byBackend[home]++
	}
	if len(byBackend) != 3 {
		t.Fatalf("200 keys used %d of 3 backends: %v", len(byBackend), byBackend)
	}
	for name, n := range byBackend {
		if n < 20 {
			t.Fatalf("backend %s owns only %d of 200 keys: %v", name, n, byBackend)
		}
	}
}

// TestPickSessionMinimalDisruption: removing one backend moves only the
// sessions it owned; everyone else keeps their home. Restoring it brings
// its sessions back (rendezvous hashing is stateless).
func TestPickSessionMinimalDisruption(t *testing.T) {
	backends := map[string]*fake{}
	b := New[*fake](RoundRobin)
	for _, name := range []string{"a", "b", "c"} {
		f := &fake{name: name, accepting: true}
		backends[name] = f
		if err := b.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	homes := make(map[uint64]string)
	for key := uint64(1); key <= 300; key++ {
		bk, err := b.PickSession(key)
		if err != nil {
			t.Fatal(err)
		}
		homes[key] = bk.Name()
	}
	// Drain "b": its sessions fail over, others must not move.
	backends["b"].accepting = false
	moved := 0
	for key, home := range homes {
		bk, err := b.PickSession(key)
		if err != nil {
			t.Fatal(err)
		}
		if home == "b" {
			moved++
			if bk.Name() == "b" {
				t.Fatalf("key %d still on drained backend", key)
			}
			continue
		}
		if bk.Name() != home {
			t.Fatalf("key %d moved %s -> %s though its home stayed up", key, home, bk.Name())
		}
	}
	if moved == 0 {
		t.Fatal("no keys homed on b — test is vacuous")
	}
	// Recovery: every session returns home.
	backends["b"].accepting = true
	for key, home := range homes {
		bk, err := b.PickSession(key)
		if err != nil {
			t.Fatal(err)
		}
		if bk.Name() != home {
			t.Fatalf("key %d did not return home after recovery: %s -> %s", key, home, bk.Name())
		}
	}
}

// TestPickSessionGuardAndErrors mirrors Pick's error contract: ErrGuarded
// when the guard refuses every ready backend, ErrNoBackends otherwise, and
// guarded homes fail over.
func TestPickSessionGuardAndErrors(t *testing.T) {
	b := New[*fake](RoundRobin)
	if _, err := b.PickSession(42); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("empty set: err = %v, want ErrNoBackends", err)
	}
	f1 := &fake{name: "a", accepting: true}
	f2 := &fake{name: "b", accepting: true}
	if err := b.Add(f1); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(f2); err != nil {
		t.Fatal(err)
	}
	var home string
	if bk, err := b.PickSession(42); err != nil {
		t.Fatal(err)
	} else {
		home = bk.Name()
	}
	b.SetGuard(func(bk *fake) bool { return bk.Name() != home })
	bk, err := b.PickSession(42)
	if err != nil {
		t.Fatal(err)
	}
	if bk.Name() == home {
		t.Fatalf("guarded home %q still picked", home)
	}
	b.SetGuard(func(*fake) bool { return false })
	if _, err := b.PickSession(42); !errors.Is(err, ErrGuarded) {
		t.Fatalf("all guarded: err = %v, want ErrGuarded", err)
	}
	f1.accepting = false
	f2.accepting = false
	b.SetGuard(nil)
	if _, err := b.PickSession(42); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("none accepting: err = %v, want ErrNoBackends", err)
	}
}

// TestPickSessionDoesNotDisturbRotation: session picks must not advance
// the round-robin cursor.
func TestPickSessionDoesNotDisturbRotation(t *testing.T) {
	b := New[*fake](RoundRobin)
	for _, name := range []string{"a", "b", "c"} {
		if err := b.Add(&fake{name: name, accepting: true}); err != nil {
			t.Fatal(err)
		}
	}
	pick := func() string {
		bk, err := b.Pick()
		if err != nil {
			t.Fatal(err)
		}
		return bk.Name()
	}
	if got := pick(); got != "a" {
		t.Fatalf("first pick %q, want a", got)
	}
	for key := uint64(0); key < 10; key++ {
		if _, err := b.PickSession(key); err != nil {
			t.Fatal(err)
		}
	}
	if got := pick(); got != "b" {
		t.Fatalf("rotation disturbed by session picks: got %q, want b", got)
	}
}
