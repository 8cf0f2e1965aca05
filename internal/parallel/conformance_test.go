package parallel

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestExecutedMessagesConformToSchedule traces every message of an
// Algorithm 5 run and checks that the gather and reduce phases execute
// exactly the planned schedule: same (from, to) pairs at the same steps,
// and nothing else — end-to-end evidence that the simulator runs the §7.2
// communication plan rather than merely counting like it.
func TestExecutedMessagesConformToSchedule(t *testing.T) {
	part := sphericalPart(t, 2)
	sched, err := schedule.Build(part)
	if err != nil {
		t.Fatal(err)
	}
	b := 6

	// Execute only the communication skeleton under an observer (empty
	// chunks are enough to validate the pattern; word counts are checked
	// by other tests).
	var rec obs.Recorder
	plans := buildPlans(part, sched)
	_, err = machine.RunWith(part.P, machine.RunConfig{Observer: rec.Observer()}, func(c *machine.Comm) {
		me := c.Rank()
		chunk := func(row int) []float64 {
			lo, hi, _ := part.OwnedRange(me, row, b)
			return make([]float64, hi-lo)
		}
		runScheduledPhase(c, plans[me], 100, func(peer int, rows []int) []float64 {
			var payload []float64
			for _, row := range rows {
				payload = append(payload, chunk(row)...)
			}
			return payload
		}, func(peer int, rows []int, payload []float64) {})
	})
	if err != nil {
		t.Fatal(err)
	}

	// Index the planned transfers by (step, from, to).
	type key struct{ step, from, to int }
	planned := make(map[key]bool)
	for si, step := range sched.Steps {
		for _, tr := range step {
			planned[key{si, tr.From, tr.To}] = true
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
		step := e.Tag - 100
		if step < 0 || step >= sched.NumSteps() {
			t.Fatalf("message with unexpected tag %d", e.Tag)
		}
		k := key{step, e.From, e.To}
		if !planned[k] {
			t.Fatalf("executed unplanned transfer %+v", k)
		}
		delete(planned, k)
	}
	if len(planned) != 0 {
		t.Fatalf("%d planned transfers never executed", len(planned))
	}
}
