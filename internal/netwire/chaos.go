package netwire

import (
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// faultWire is the socket-level realization of a fault.Plan: it perturbs
// the framed bytes a node writes, below the codec and below the reliable
// transport, so retransmissions and acks cross a genuinely hostile wire.
// One faultWire decorates one node (one rank) and consumes that rank's
// fault.Stream — the same decision stream the simulated injector draws
// from — so one plan perturbs the sim and socket grids identically,
// operation by operation. The node outlives rank restarts, so the stream
// (and its crash clock) continues past a crash instead of re-firing it.
//
// The decisions map onto frames as follows:
//
//	drop     the frame is never written
//	dup      the frame is written twice
//	reorder  the frame is held and flushed after the next outbound frame
//	corrupt  one byte of the frame body is flipped; the receiver's FNV-1a
//	         trailer check fails and the whole connection is dropped
//	         (lossy-close semantics — heavier than the sim's single-packet
//	         corruption, and deliberately so)
//	stall    the sending rank sleeps before the write
//	reset    half the frame is written, then the connection is torn down;
//	         the receiver sees a torn frame and drops the stream
//	crash    the rank panics with machine.CrashError at its Nth send
//
// Every class except stall destroys or delays delivery, so a chaos-wired
// run needs the reliable transport above it, exactly as in the simulator.
type faultWire struct {
	mu     sync.Mutex
	stream *fault.Stream
	held   *frameAction
}

// frameAction is one decided write: a destination, the bytes, and whether
// the write should be torn mid-frame with the connection closed after it.
type frameAction struct {
	to    int
	frame []byte
	reset bool
	pkt   machine.Packet // for drop reporting if the write fails
}

// newFaultWire returns the chaos state for one rank's node, or nil when
// the plan injects nothing.
func newFaultWire(plan fault.Plan, rank int) *faultWire {
	if !plan.Active() {
		return nil
	}
	return &faultWire{stream: fault.NewStream(plan, rank, nil)}
}

// send perturbs and writes one outbound packet for nd.
func (fw *faultWire) send(nd *node, to int, pkt machine.Packet) error {
	actions, crash := fw.decide(nd, to, pkt)
	if crash != nil {
		panic(*crash)
	}
	var firstErr error
	for _, a := range actions {
		err := nd.writeFrame(a.to, a.frame, a.reset)
		if a.reset {
			// The torn write is the fault, not a wire failure: the frame is
			// gone by design, which the drop hook records.
			nd.reportDrop(a.pkt, "reset")
			continue
		}
		if err != nil {
			nd.reportDrop(a.pkt, err.Error())
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// decide draws this send's fault decision and returns the writes to
// perform. It holds fw.mu for the stream and the held-frame slot; the
// stall sleep happens under the lock, which only serializes this rank's
// own sends — the same semantics as the simulated injector sleeping on
// the sending goroutine.
func (fw *faultWire) decide(nd *node, to int, pkt machine.Packet) ([]frameAction, *machine.CrashError) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	d := fw.stream.Next(pkt.Kind == machine.PacketData && len(pkt.Data) > 0)
	if d.Crash {
		return nil, &machine.CrashError{Rank: nd.rank, Op: d.Op}
	}
	time.Sleep(d.Stall)

	var out []frameAction
	switch {
	case d.Drop:
		nd.reportDrop(pkt, "chaos drop")
	case d.Reset:
		out = append(out, frameAction{to: to, frame: AppendFrame(nil, pkt), reset: true, pkt: pkt})
	default:
		frame := AppendFrame(nil, pkt)
		if d.Corrupt {
			// Flip one payload byte without fixing the trailer: the
			// receiver's checksum fails and the connection is dropped.
			frame[framePrefixLen+frameHeaderLen+d.Op%(8*len(pkt.Data))] ^= 0x81
		}
		out = append(out, frameAction{to: to, frame: frame, pkt: pkt})
		if d.Dup {
			out = append(out, frameAction{to: to, frame: append([]byte(nil), frame...), pkt: pkt})
		}
	}
	if d.Flush {
		// Flush the held frame after the current one: the swap is the
		// reordering.
		out = append(out, *fw.held)
		fw.held = nil
	} else if d.Hold {
		fw.held = &out[0]
		out = nil
	}
	return out, nil
}
