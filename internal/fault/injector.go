package fault

import (
	"math"
	"time"

	"repro/internal/machine"
)

// Inject wraps a rank's raw wire endpoint with the plan's fault
// injectors. Faults fire on the delivery path (the sender's side of the
// wire), which keeps them deterministic: each rank's deliveries happen in
// its own program order, and each rank draws its decisions from its own
// Stream — the one the socket chaos layer draws from too. Acks and
// retransmissions pass through the same injector as first transmissions —
// recovery traffic is not privileged.
//
// An injected wire violates the delivery guarantees the direct transport
// assumes; pair it with the reliable transport (see Transport) unless the
// plan is stall-only, the one fault class that preserves delivery.
func Inject(w machine.Wire, plan Plan) machine.Wire {
	return injectWith(w, plan, nil)
}

// injectWith is Inject with the plan's crash faults routed through reg
// (see NewStream).
func injectWith(w machine.Wire, plan Plan, reg *CrashRegistry) machine.Wire {
	if !plan.Active() {
		return w
	}
	return &injector{Wire: w, stream: NewStream(plan, w.Rank(), reg)}
}

type injector struct {
	machine.Wire
	stream *Stream
	held   *machine.Packet
}

func (i *injector) Deliver(pkt machine.Packet) {
	d := i.stream.Next(pkt.Kind == machine.PacketData && len(pkt.Data) > 0)
	if d.Crash {
		panic(machine.CrashError{Rank: i.Rank(), Op: d.Op})
	}
	time.Sleep(d.Stall)

	var out []machine.Packet
	if !d.Drop && !d.Reset {
		// A dropped packet vanishes before reaching the wire; a reset has
		// no connection to tear here, so it is simply lost too.
		if d.Corrupt {
			pkt.Data = corrupt(pkt.Data, d.Op)
		}
		out = append(out, pkt)
		if d.Dup {
			// The duplicate gets its own payload and must not carry the
			// Recycle mark: if both copies aliased one poolable buffer, the
			// receiver could recycle it after the first delivery and the
			// second would read reused memory.
			dup := pkt
			if len(pkt.Data) > 0 {
				dup.Data = append([]float64(nil), pkt.Data...)
			}
			dup.Recycle = false
			out = append(out, dup)
		}
	}
	if d.Flush {
		// Deliver the held packet after the current one: the swap is the
		// reordering.
		out = append(out, *i.held)
		i.held = nil
	} else if d.Hold {
		i.held = &out[0]
		out = nil
	}
	for _, p := range out {
		i.Wire.Deliver(p)
	}
}

// corrupt returns a copy of data with one element bit-flipped (sign and
// low mantissa bit), leaving the caller's buffer — which a reliable
// transport may retransmit — intact.
func corrupt(data []float64, salt int) []float64 {
	cp := append([]float64(nil), data...)
	idx := salt % len(cp)
	cp[idx] = math.Float64frombits(math.Float64bits(cp[idx]) ^ 0x8000000000000001)
	return cp
}

// Unreliable is a transport factory that runs the plain direct transport
// over an injected wire: faults hit the algorithm unrepaired. Useful for
// stall-only plans (delay never violates delivery, so results stay
// exact) and for demonstrating why the reliable transport exists.
func Unreliable(plan Plan) machine.TransportFactory {
	return func(w machine.Wire) machine.Transport {
		return machine.NewDirectTransport(Inject(w, plan))
	}
}
