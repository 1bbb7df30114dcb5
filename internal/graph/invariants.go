package graph

import (
	"dcm/internal/invariant"
)

// CheckInvariants audits the application's conservation laws against the
// attached checker (no-op without one). Checking is read-only and free of
// events and randomness, so audited runs stay byte-identical.
//
// The laws, from the whole graph down to single members:
//
//   - whole-graph conservation: injected = Σ finished dispositions +
//     in-flight, with the disposition taxonomy consistent with the
//     completion/error counters;
//   - per-class conservation and the cross-class split (classified flows
//     plus the unclassed remainder sum to the whole-system taxonomy);
//   - per-node ledgers: every visit that reached a node is either finished
//     (counted once, fan-out joins included) or still on it;
//   - the entry ledger ties the graph to the front door: entry visits =
//     injected − brownout sheds (front-door sheds never reach a node);
//   - the async ledger: fire-and-forget deliveries spawned = finished +
//     in-flight, conserved separately from their parent requests;
//   - per-member thread/connection pool accounting.
func (a *App) CheckInvariants() {
	if a.chk == nil {
		return
	}
	now := a.eng.Now()
	if a.inFlight < 0 {
		a.chk.Violatef(now, invariant.RuleConservation, "graph", 0,
			"in-flight count negative (%d)", a.inFlight)
	}
	if total := a.disp.Total(); a.injected != total+uint64(a.inFlight) {
		a.chk.Violatef(now, invariant.RuleConservation, "graph", 0,
			"injected %d != %d finished dispositions + %d in-flight",
			a.injected, total, a.inFlight)
	}
	a.chk.Check(now, invariant.RuleMetrics, "graph",
		a.disp.CheckConsistent(a.completions.Total(), a.errored.Total()))
	if len(a.classes) > 0 {
		sum := a.unclassedDisp
		for i := range a.classes {
			st := &a.classes[i]
			name := "graph/class/" + a.cfg.Classes[i].Name
			if st.inFlight < 0 {
				a.chk.Violatef(now, invariant.RuleConservation, name, 0,
					"in-flight count negative (%d)", st.inFlight)
			}
			if total := st.disp.Total(); st.injected != total+uint64(st.inFlight) {
				a.chk.Violatef(now, invariant.RuleConservation, name, 0,
					"injected %d != %d finished dispositions + %d in-flight",
					st.injected, total, st.inFlight)
			}
			a.chk.Check(now, invariant.RuleMetrics, name,
				st.disp.CheckConsistent(st.completions, st.errored))
			sum.Add(st.disp)
		}
		if sum != a.disp {
			a.chk.Violatef(now, invariant.RuleMetrics, "graph/classes", 0,
				"per-class dispositions %+v != system tally %+v", sum, a.disp)
		}
	}
	for _, n := range a.nodes {
		name := "graph/node/" + n.spec.Name
		if n.inFlight < 0 {
			a.chk.Violatef(now, invariant.RuleConservation, name, 0,
				"node in-flight count negative (%d)", n.inFlight)
		}
		if total := n.visits.Total(); n.started != total+uint64(n.inFlight) {
			a.chk.Violatef(now, invariant.RuleConservation, name, 0,
				"visits started %d != %d finished + %d in-flight",
				n.started, total, n.inFlight)
		}
		if n.entry {
			if want := a.injected - a.brownoutSheds; n.started != want {
				a.chk.Violatef(now, invariant.RuleConservation, name, 0,
					"entry visits %d != injected %d - brownout sheds %d",
					n.started, a.injected, a.brownoutSheds)
			}
		}
	}
	if total := a.asyncDisp.Total(); a.asyncSpawned != total+uint64(a.asyncInFlight) {
		a.chk.Violatef(now, invariant.RuleConservation, "graph/async", 0,
			"async spawned %d != %d finished + %d in-flight",
			a.asyncSpawned, total, a.asyncInFlight)
	}
	if a.asyncInFlight < 0 {
		a.chk.Violatef(now, invariant.RuleConservation, "graph/async", 0,
			"async in-flight count negative (%d)", a.asyncInFlight)
	}
	for _, n := range a.nodes {
		for _, m := range n.balancer.Backends() {
			a.chk.Check(now, invariant.RulePoolAccounting, n.spec.Name+"/"+m.Name(),
				m.srv.CheckInvariant())
			for _, p := range m.pools {
				if p == nil {
					continue
				}
				a.chk.Check(now, invariant.RulePoolAccounting, n.spec.Name+"/"+p.Name(),
					p.CheckInvariant())
			}
		}
	}
}

// CorruptLedgerForTest deliberately skews the whole-graph conservation
// ledger by delta injected requests without touching anything else. It
// exists solely so tests can prove CheckInvariants catches accounting
// drift; production code must never call it.
func (a *App) CorruptLedgerForTest(delta int) {
	a.injected = uint64(int64(a.injected) + int64(delta))
}

// CorruptNodeInFlightForTest forces a node's ledger in-flight count, for
// tests proving the per-node negative-count detection fires.
func (a *App) CorruptNodeInFlightForTest(nodeName string, v int) error {
	n, err := a.nodeOf(nodeName)
	if err != nil {
		return err
	}
	n.inFlight = v
	return nil
}
