package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// checkTraceMatchesPhases verifies the trace-conformance invariant at
// phase granularity: the summed trace events of each phase equal the
// Result's snapshot-based PhaseMeters exactly, per rank — two independent
// measurement paths (event stream vs counter deltas) agreeing on every
// number.
func checkTraceMatchesPhases(t *testing.T, tr *obs.Trace, phases []PhaseMeter, p int) {
	t.Helper()
	totals, _ := tr.PhaseTotals()
	for _, m := range phases {
		pt := totals[m.Label]
		if pt == nil {
			if m.TotalSentWords() == 0 && m.TotalTernary() == 0 {
				continue // a phase with no traffic need not appear in the trace
			}
			t.Fatalf("phase %q missing from trace", m.Label)
		}
		for r := 0; r < p; r++ {
			if pt.SentWords[r] != m.SentWords[r] || pt.SentMsgs[r] != m.SentMsgs[r] {
				t.Errorf("phase %q rank %d: trace sent %dw/%dm, meter %dw/%dm",
					m.Label, r, pt.SentWords[r], pt.SentMsgs[r], m.SentWords[r], m.SentMsgs[r])
			}
			if pt.RecvWords[r] != m.RecvWords[r] || pt.RecvMsgs[r] != m.RecvMsgs[r] {
				t.Errorf("phase %q rank %d: trace recv %dw/%dm, meter %dw/%dm",
					m.Label, r, pt.RecvWords[r], pt.RecvMsgs[r], m.RecvWords[r], m.RecvMsgs[r])
			}
			if pt.Ternary[r] != m.Ternary[r] {
				t.Errorf("phase %q rank %d: trace ternary %d, meter %d",
					m.Label, r, pt.Ternary[r], m.Ternary[r])
			}
		}
		// The trace counts barrier generations; both wirings cross one
		// barrier per exchange step.
		if pt.Steps != m.Steps {
			t.Errorf("phase %q: trace counts %d steps, meter %d", m.Label, pt.Steps, m.Steps)
		}
	}
}

// TestTraceConformanceP2P is the headline acceptance check: for fault-free
// point-to-point runs the trace events sum to the Report meters exactly
// (per rank and per phase), the replayed step count equals the
// q³/2+3q²/2−1 schedule length, and the replayed phase time equals the
// closed-form α-β makespan.
func TestTraceConformanceP2P(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		sched, err := schedule.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		b := q * (q + 1) * 2
		n := part.M * b
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		var rec obs.Recorder
		res, err := Run(nil, x, Options{
			Part: part, Sched: sched, B: b, Wiring: WiringP2P,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()

		if err := tr.CheckAgainstReport(res.Report); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		checkTraceMatchesPhases(t, tr, res.Phases, part.P)

		// γ=0 keeps every rank's phase entry synchronized, so each phase
		// replays to exactly the closed-form stepwise makespan (with γ>0
		// the compute imbalance would bleed wait time into the second
		// exchange's first barrier).
		model := obs.TimeModel{Alpha: 1e-5, Beta: 1e-8, Gamma: 0}
		tl, err := obs.Replay(tr, model)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		wantSteps := schedule.TheoreticalSteps(q)
		if q == 3 && wantSteps != 26 {
			t.Fatalf("q=3 schedule length %d, want 26 = q³/2+3q²/2−1", wantSteps)
		}
		for _, label := range []string{"gather", "reduce-scatter"} {
			if tl.PhaseSteps[label] != wantSteps {
				t.Errorf("q=%d phase %q: replay counts %d steps, want %d",
					q, label, tl.PhaseSteps[label], wantSteps)
			}
		}
		if res.Steps != wantSteps {
			t.Errorf("q=%d: Result.Steps = %d, want %d", q, res.Steps, wantSteps)
		}

		// The replay semantics reproduce the closed-form stepwise cost: a
		// phase of the schedule replays to exactly Σ(α + maxWords·β).
		want := sched.Makespan(part, b, model.Alpha, model.Beta)
		for _, label := range []string{"gather", "reduce-scatter"} {
			got := tl.PhaseTime(label)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("q=%d phase %q: replay time %g, closed-form makespan %g", q, label, got, want)
			}
		}
	}
}

// TestTraceConformanceAllToAll repeats the invariant under the All-to-All
// wiring: each phase replays P−1 barrier steps, and at γ=0 a phase replays
// to exactly the fixed-width All-to-All makespan (P−1)(α + 2·maxChunk·β).
func TestTraceConformanceAllToAll(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		b := q * (q + 1)
		n := part.M * b
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		var rec obs.Recorder
		res, err := Run(nil, x, Options{
			Part: part, B: b, Wiring: WiringAllToAll,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		if err := tr.CheckAgainstReport(res.Report); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		checkTraceMatchesPhases(t, tr, res.Phases, part.P)

		model := obs.TimeModel{Alpha: 1e-5, Beta: 1e-8, Gamma: 0}
		tl, err := obs.Replay(tr, model)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		maxChunk := 0
		for _, sharers := range part.Qi {
			maxChunk = max(maxChunk, (b+len(sharers)-1)/len(sharers))
		}
		want := schedule.AllToAllMakespan(part.P, 2*maxChunk, model.Alpha, model.Beta)
		for _, label := range []string{"gather", "reduce-scatter"} {
			if tl.PhaseSteps[label] != part.P-1 {
				t.Errorf("q=%d phase %q: replay counts %d steps, want P-1 = %d", q, label, tl.PhaseSteps[label], part.P-1)
			}
			if m := res.Phase(label); m == nil || m.Steps != part.P-1 {
				t.Errorf("q=%d phase %q: meter steps = %+v, want P-1 = %d", q, label, m, part.P-1)
			}
			if got := tl.PhaseTime(label); math.Abs(got-want) > 1e-9*want {
				t.Errorf("q=%d phase %q: replay time %g, All-to-All makespan %g", q, label, got, want)
			}
		}
	}
}

// TestTraceConformanceUnderFaults runs Algorithm 5 over a lossy wire with
// the reliable transport and wire events enabled: the logical trace and
// phase meters must be bit-identical to a fault-free run's accounting
// (the logical-vs-wire invariant), while the wire trace shows the
// recovery traffic.
func TestTraceConformanceUnderFaults(t *testing.T) {
	q := 2
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	plan := fault.Plan{Seed: 42, Drop: 0.08, Dup: 0.05, Reorder: 0.05, MaxFaults: 200}
	var rec obs.Recorder
	res, err := Run(nil, x, Options{
		Part: part, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{
			Timeout:    20 * time.Second,
			Observer:   rec.Observer(),
			WireEvents: true,
			Transport:  fault.Transport(plan),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()

	// Logical accounting is untouched by the faults.
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesPhases(t, tr, res.Phases, part.P)

	// The wire actually diverged: acks at minimum, plus retransmissions
	// and duplicates, mean strictly more wire packets than logical
	// messages.
	var logicalMsgs, wireMsgs int64
	rank := tr.RankTotals()
	for r := 0; r < part.P; r++ {
		logicalMsgs += rank.SentMsgs[r]
	}
	wireTotals, _ := tr.WireTotals()
	for _, wt := range wireTotals {
		for r := 0; r < part.P; r++ {
			wireMsgs += wt.SentMsgs[r]
		}
	}
	if wireMsgs <= logicalMsgs {
		t.Errorf("wire trace records %d packets vs %d logical messages; expected recovery overhead",
			wireMsgs, logicalMsgs)
	}

	// The replayed logical timeline still counts the schedule's steps.
	tl, err := obs.Replay(tr, obs.DefaultTimeModel())
	if err != nil {
		t.Fatal(err)
	}
	if want := schedule.TheoreticalSteps(q); tl.PhaseSteps["gather"] != want {
		t.Errorf("gather steps %d under faults, want %d", tl.PhaseSteps["gather"], want)
	}
}

// TestTraceConformancePowerMethod extends the invariant to the resident
// power method: the summed trace of a full multi-iteration run matches
// both the run report and the accumulated per-phase meters — in
// particular the exchange meters' step counts, which must scale with the
// iterations executed (the seed reported a single application's worth).
func TestTraceConformancePowerMethod(t *testing.T) {
	q := 2
	part := sphericalPart(t, q)
	b := q * (q + 1)
	n := part.M * b
	rng := rand.New(rand.NewSource(17))
	a := tensor.Random(n, rng)
	const iters = 4
	var rec obs.Recorder
	res, err := RunPowerMethod(a,
		Options{
			Part: part, B: b, Wiring: WiringP2P,
			Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
		},
		PowerOptions{MaxIter: iters, Tol: 1e-300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != iters {
		t.Fatalf("Iterations = %d, want the full cap %d", res.Iterations, iters)
	}
	tr := rec.Trace()
	if err := tr.CheckAgainstReport(res.Report); err != nil {
		t.Fatal(err)
	}
	checkTraceMatchesPhases(t, tr, res.Phases, part.P)

	wantSteps := schedule.TheoreticalSteps(q) * iters
	for _, label := range []string{"gather", "reduce-scatter"} {
		if m := res.Phase(label); m == nil || m.Steps != wantSteps {
			t.Errorf("phase %q: meter steps = %+v, want schedule length × iterations = %d",
				label, m, wantSteps)
		}
	}
}

// TestExchangeStepsAreStampedMatchings pins the step structure of the
// one-superstep exchange from its trace, for both wirings and both
// phases at q=2 and q=3. A phase crosses one barrier, so the §7.2 step
// lives on the messages (machine.Comm.BeginStep), and the stamps must
// describe the schedule exactly:
//   - every message's stamp is the step its tag encodes (100+s in the
//     gather, 200+s in the reduce-scatter), and (from, to) is a pair of
//     that step's matching — the schedule's transfers under P2P, the
//     pairwise shift r → r+s+1 mod P under All-to-All;
//   - a rank sends at most once and receives at most once per step;
//   - a phase has exactly q³/2+3q²/2−1 (P2P) or P−1 (All-to-All)
//     distinct steps, counted here and by obs.Trace.PhaseTotals;
//   - each rank posts its sends, and drains its receives, in ascending
//     step order — the reduce-scatter adds peer partials in that order.
func TestExchangeStepsAreStampedMatchings(t *testing.T) {
	for _, q := range []int{2, 3} {
		part := sphericalPart(t, q)
		sched, err := schedule.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		for _, wiring := range []Wiring{WiringP2P, WiringAllToAll} {
			b := q * (q + 1)
			n := part.M * b
			var rec obs.Recorder
			if _, err := Run(tensor.Random(n, rand.New(rand.NewSource(9))), randVec(n, rand.New(rand.NewSource(10))), Options{
				Part: part, Sched: sched, B: b, Wiring: wiring,
				Machine: machine.RunConfig{Timeout: 10 * time.Second, Observer: rec.Observer()},
			}); err != nil {
				t.Fatal(err)
			}
			steps := schedule.TheoreticalSteps(q)
			inMatching := func(s, from, to int) bool {
				if wiring == WiringAllToAll {
					return to == (from+s+1)%part.P
				}
				for _, tr := range sched.Steps[s] {
					if tr.From == from && tr.To == to {
						return true
					}
				}
				return false
			}
			if wiring == WiringAllToAll {
				steps = part.P - 1
			}
			tr := rec.Trace()
			totals, _ := tr.PhaseTotals()
			for _, ph := range []struct {
				label string
				base  int
			}{{"gather", 100}, {"reduce-scatter", 200}} {
				where := func(r int) string { return fmt.Sprintf("q=%d %v rank %d %s", q, wiring, r, ph.label) }
				seen := make(map[int]bool)
				for r, evs := range tr.Logical().PerRank() {
					lastSend, lastRecv := -1, -1
					for _, e := range evs {
						if e.Phase != ph.label || (e.Kind != machine.EventSend && e.Kind != machine.EventRecv) {
							continue
						}
						s := e.Step
						if s < 0 || s >= steps {
							t.Fatalf("%s: %s tag %d stamped step %d, outside 0..%d", where(r), e.Kind, e.Tag, s, steps-1)
						}
						if e.Tag-ph.base != s {
							t.Errorf("%s: %s tag %d encodes step %d, stamped %d", where(r), e.Kind, e.Tag, e.Tag-ph.base, s)
						}
						if !inMatching(s, e.From, e.To) {
							t.Errorf("%s: %s %d→%d is not a pair of step %d", where(r), e.Kind, e.From, e.To, s)
						}
						last := &lastSend
						if e.Kind == machine.EventRecv {
							last = &lastRecv
						}
						if s == *last {
							t.Errorf("%s: two %ss in step %d", where(r), e.Kind, s)
						} else if s < *last {
							t.Errorf("%s: %s of step %d after step %d", where(r), e.Kind, s, *last)
						}
						*last = s
						seen[s] = true
					}
				}
				if len(seen) != steps {
					t.Errorf("q=%d %v %s: %d distinct stamped steps, want %d", q, wiring, ph.label, len(seen), steps)
				}
				if pt := totals[ph.label]; pt == nil || pt.Steps != steps {
					t.Errorf("q=%d %v %s: PhaseTotals = %+v, want %d steps", q, wiring, ph.label, pt, steps)
				}
			}
		}
	}
}
