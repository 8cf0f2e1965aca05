package fault

import (
	"math/rand"
	"time"
)

// Decision is the fault verdict for one outbound wire operation. The
// simulated injector (Inject) maps it onto packets and the socket chaos
// layer (internal/netwire) onto framed bytes; both draw it from a Stream,
// so one plan perturbs both backends identically, operation by operation.
type Decision struct {
	// Op is the operation's 1-based index in the rank's stream — the
	// crash clock, also used to salt payload corruption.
	Op int
	// Crash reports that the rank's scheduled crash fires at this
	// operation; no other field is set and nothing reaches the wire.
	Crash bool
	// Stall is the delay to impose on the sender before the operation
	// (zero: none).
	Stall time.Duration
	// Drop loses the packet. Reset loses it to a connection reset: a
	// socket tears the frame and closes the connection, the simulated
	// wire (which has no connections) just loses it.
	Drop, Reset bool
	// Corrupt damages the payload; Dup delivers it twice.
	Corrupt, Dup bool
	// Hold delays the packet until the next operation (reorder); Flush
	// releases the packet an earlier operation held, after this one's.
	Hold, Flush bool
}

// Stream is one rank's deterministic sequence of fault decisions under a
// plan. It owns everything that must agree across backends: the per-rank
// seed, the fixed order of the six draws per operation, the MaxFaults
// budget, the stall delay, the reorder slot and the crash clock. Not safe
// for concurrent use.
type Stream struct {
	plan    Plan
	rank    int
	reg     *CrashRegistry
	rng     *rand.Rand
	ops     int  // operations so far (crash clock)
	faults  int  // injected faults so far (MaxFaults budget)
	holding bool // a packet is held for reordering
}

// NewStream returns rank's decision stream under plan. A non-nil reg
// makes the rank's crash fire at most once across every stream sharing
// it (a relaunched machine rebuilds every rank's stream from scratch);
// with a nil reg the crash fires once per stream.
func NewStream(plan Plan, rank int, reg *CrashRegistry) *Stream {
	return &Stream{
		plan: plan,
		rank: rank,
		reg:  reg,
		rng:  rand.New(rand.NewSource(plan.Seed ^ (0x9e3779b97f4a7c * int64(rank+1)))),
	}
}

// Next decides the rank's next wire operation. corruptible reports
// whether the packet has a payload a corruption could damage.
func (s *Stream) Next(corruptible bool) Decision {
	s.ops++
	d := Decision{Op: s.ops}
	if at, ok := s.plan.Crash[s.rank]; ok && s.ops == at && (s.reg == nil || s.reg.claim(s.rank)) {
		d.Crash = true
		return d
	}
	// Draw every decision up front so the random stream advances the
	// same way regardless of which faults fire.
	rDrop := s.rng.Float64()
	rDup := s.rng.Float64()
	rReorder := s.rng.Float64()
	rCorrupt := s.rng.Float64()
	rStall := s.rng.Float64()
	rReset := s.rng.Float64()

	if rStall < s.plan.Stall && s.budget() {
		d.Stall = s.plan.StallDelay
		if d.Stall <= 0 {
			d.Stall = time.Millisecond
		}
	}
	switch {
	case rDrop < s.plan.Drop && s.budget():
		d.Drop = true
	case rReset < s.plan.Reset && s.budget():
		d.Reset = true
	default:
		d.Corrupt = rCorrupt < s.plan.Corrupt && corruptible && s.budget()
		d.Dup = rDup < s.plan.Dup && s.budget()
	}
	// Flushing on every operation bounds a reorder's delay to one
	// operation, so a held packet can never be lost outright. Only a lone
	// surviving packet is held.
	if s.holding {
		d.Flush, s.holding = true, false
	} else if !d.Drop && !d.Reset && !d.Dup && rReorder < s.plan.Reorder && s.budget() {
		d.Hold, s.holding = true, true
	}
	return d
}

// budget consumes one fault from the per-rank allowance.
func (s *Stream) budget() bool {
	if s.plan.MaxFaults > 0 && s.faults >= s.plan.MaxFaults {
		return false
	}
	s.faults++
	return true
}
