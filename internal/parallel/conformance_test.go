package parallel

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestExecutedMessagesConformToSchedule traces every message of a real
// Session.Apply and checks that the gather and reduce-scatter phases
// execute exactly the planned schedule: same (from, to) pairs at the same
// steps, gather tagged 100+s and reduce-scatter 200+s, and nothing else —
// end-to-end evidence that the shipped exchange code runs the §7.2
// communication plan rather than merely counting like it.
func TestExecutedMessagesConformToSchedule(t *testing.T) {
	part := sphericalPart(t, 2)
	sched, err := schedule.Build(part)
	if err != nil {
		t.Fatal(err)
	}
	b := 6

	// The watchdog turns a mis-wired layout (a message sent to a peer
	// that waits on another step's tag) into an Apply error, not a hang.
	var rec obs.Recorder
	s, err := OpenSession(nil, Options{
		Part: part, Sched: sched, B: b, Wiring: WiringP2P,
		Machine: machine.RunConfig{Observer: rec.Observer(), Timeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(make([]float64, part.M*b)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Index the planned transfers by (tag, from, to) for both phases.
	type key struct{ tag, from, to int }
	planned := make(map[key]bool)
	for si, step := range sched.Steps {
		for _, tr := range step {
			planned[key{100 + si, tr.From, tr.To}] = true
			planned[key{200 + si, tr.From, tr.To}] = true
		}
	}

	var events []machine.Event
	for _, e := range rec.Trace().Events {
		if e.Kind == machine.EventSend && !e.Wire {
			events = append(events, e)
		}
	}
	if len(events) != len(planned) {
		t.Fatalf("executed %d messages, schedule plans %d", len(events), len(planned))
	}
	for _, e := range events {
		k := key{e.Tag, e.From, e.To}
		if !planned[k] {
			t.Fatalf("executed unplanned transfer %+v", k)
		}
		delete(planned, k)
	}
	if len(planned) != 0 {
		t.Fatalf("%d planned transfers never executed", len(planned))
	}
}
