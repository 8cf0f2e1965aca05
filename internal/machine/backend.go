package machine

import (
	"fmt"
	"sync"
	"time"
)

// Backend supplies the raw packet layer a machine runs on: one BackendWire
// per local rank. The default SimBackend moves packets through in-memory
// mailboxes (the simulator the paper's meters were built on);
// internal/netwire provides TCP and unix-domain-socket backends that move
// the same packets through length-prefixed frames on real sockets, so the
// P ranks can run as separate OS processes.
//
// The seam sits below machine.Wire: a backend wire only moves packets.
// Everything the Wire contract promises on top — logical/wire metering,
// epoch stamping on Deliver and epoch fencing on Pull, abort unwinding —
// is layered on uniformly by the machine, so a TransportFactory (direct,
// reliable, fault-injected) composes unchanged over any backend.
type Backend interface {
	// NewWire returns rank's raw endpoint on a machine of the given size.
	// Called once per local rank at machine start. A backend shared by
	// successive incarnations (a relaunched machine) hands out endpoints
	// over the same inbound queues: packets an earlier incarnation left
	// there carry its epoch, and the machine fences them on Pull.
	NewWire(rank, size int) (BackendWire, error)
	// Close releases the backend's resources (sockets, listeners,
	// goroutines). The machine never calls it — the backend's creator
	// owns its lifecycle, because one backend may outlive several runs.
	Close() error
}

// BackendWire is one rank's raw packet endpoint as a Backend provides it:
// pure packet movement, with none of the Wire contract's metering or
// epoch semantics (the machine decorates those on).
type BackendWire interface {
	// Deliver pushes pkt toward pkt.To. It may block on backpressure (a
	// full TCP send buffer). Delivery to an unreachable peer is dropped
	// silently — lossy-close semantics; a recovery supervisor, not the
	// wire, resolves the resulting stall.
	Deliver(pkt Packet)
	// Pull blocks until a packet addressed to this rank arrives. A close
	// of the abort channel wakes the wait with ok == false.
	Pull(abort <-chan struct{}) (Packet, bool)
	// PullTimeout is Pull with a deadline; ok is false on timeout.
	PullTimeout(d time.Duration) (Packet, bool)
	// Depth reports the number of buffered undelivered packets (deadlock
	// diagnostics).
	Depth() int
	// PacketCost prices a packet for the wire meters. The simulator
	// charges len(Data) words; a real-network wire returns the framed
	// size in 8-byte words (header, payload, and frame checksum
	// included), so the Report's wire-vs-logical split measures what
	// actually crossed the socket.
	PacketCost(pkt Packet) int64
	// OnDrop registers a hook for every datagram the wire loses — a send
	// to a dead peer, a write error, an injected chaos fault. The machine
	// turns each loss into an EventDrop wire event, so dropped sends are
	// countable in traces. The hook is called from whatever goroutine
	// performed the Deliver. A wire that never loses a datagram (the
	// simulator) ignores it.
	OnDrop(fn func(pkt Packet, reason string))
}

// BarrierWire is an optional BackendWire extension required for
// distributed runs (fewer local ranks than machine size): the in-process
// counting barrier cannot see remote ranks, so Comm.Barrier delegates to
// the wire. Barrier blocks until all size ranks of the given epoch have
// arrived and returns the global barrier generation (the trace's barrier
// identifier, identical on all participants and monotonic across epochs).
// A close of the abort channel — or a remote abort decision — wakes the
// wait with ok == false; the caller unwinds with the abort sentinel.
//
// It stays optional because only a distributed backend's wire has a
// control plane to count remote arrivals on; StartWith rejects a
// distributed run whose wires lack it.
type BarrierWire interface {
	Barrier(epoch int64, abort <-chan struct{}) (gen int, ok bool)
}

// PacketQueue is an unbounded FIFO packet queue with a single consumer
// and many producers — the mailbox the simulator runs on, exported so
// socket backends can reuse it as their inbound queue.
// Unlike a fixed-capacity channel it cannot silently deadlock a protocol
// whose in-flight message count exceeds a preset buffer size; the backing
// array compacts in place, so a steady-state producer/consumer pair stops
// allocating once it has grown to the high-water depth.
//
// A Pull that finds a packet waiting takes the queue's mutex and nothing
// else. Only a consumer that finds the queue empty announces itself
// (waiting) and parks on the notify channel, and only a Push that sees
// the announcement signals it, so a producer posting to a consumer busy
// elsewhere — the common case in a superstep exchange, where the
// receiver is still at the barrier — never touches the channel.
type PacketQueue struct {
	mu      sync.Mutex
	q       []Packet
	head    int
	waiting bool          // the consumer found the queue empty and may be parked
	notify  chan struct{} // consumer wakeup; a stale token costs one empty pass
}

// NewPacketQueue returns an empty queue.
func NewPacketQueue() *PacketQueue {
	return &PacketQueue{notify: make(chan struct{}, 1)}
}

// Push appends a packet; it never blocks.
func (b *PacketQueue) Push(p Packet) {
	b.mu.Lock()
	if b.head > 0 && len(b.q) == cap(b.q) {
		// Reclaim the consumed prefix before growing the array.
		n := copy(b.q, b.q[b.head:])
		for i := n; i < len(b.q); i++ {
			b.q[i] = Packet{}
		}
		b.q = b.q[:n]
		b.head = 0
	}
	b.q = append(b.q, p)
	wake := b.waiting
	b.waiting = false
	b.mu.Unlock()
	if wake {
		select {
		case b.notify <- struct{}{}:
		default:
		}
	}
}

// Pull removes the oldest packet, blocking until one arrives. A close of
// the abort channel (nil to wait forever) wakes the wait with ok == false
// so a rank blocked on an empty queue can unwind during an abort.
func (b *PacketQueue) Pull(abort <-chan struct{}) (Packet, bool) {
	return b.pull(0, abort)
}

// PullTimeout is Pull with a deadline; ok is false on timeout.
func (b *PacketQueue) PullTimeout(d time.Duration) (Packet, bool) {
	if d <= 0 {
		d = time.Nanosecond
	}
	return b.pull(d, nil)
}

func (b *PacketQueue) pull(d time.Duration, abort <-chan struct{}) (Packet, bool) {
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for {
		b.mu.Lock()
		if b.head < len(b.q) {
			p := b.q[b.head]
			b.q[b.head] = Packet{}
			b.head++
			if b.head == len(b.q) {
				b.q = b.q[:0]
				b.head = 0
			}
			b.mu.Unlock()
			return p, true
		}
		b.waiting = true
		b.mu.Unlock()
		if d == 0 {
			select {
			case <-b.notify:
			case <-abort:
				return Packet{}, false
			}
			continue
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return Packet{}, false
		}
		t := time.NewTimer(remain)
		select {
		case <-b.notify:
			t.Stop()
		case <-t.C:
			return Packet{}, false
		}
	}
}

// Depth returns the number of buffered packets.
func (b *PacketQueue) Depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.q) - b.head
}

// SimBackend is the default backend: per-rank in-memory mailboxes, exactly
// the simulated network the repo's communication meters were validated on.
// The zero value is unusable; use NewSimBackend. A SimBackend serves one
// machine incarnation at a time (its mailboxes are sized at the first
// NewWire); successive incarnations of one size may share it.
type SimBackend struct {
	mu    sync.Mutex
	boxes []*PacketQueue
}

// NewSimBackend returns an in-memory backend of unbounded mailboxes — no
// correct protocol can deadlock on mailbox space.
func NewSimBackend() *SimBackend {
	return &SimBackend{}
}

// NewWire returns rank's mailbox endpoint, allocating the mailbox array on
// first use.
func (b *SimBackend) NewWire(rank, size int) (BackendWire, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.boxes == nil {
		b.boxes = make([]*PacketQueue, size)
		for i := range b.boxes {
			b.boxes[i] = NewPacketQueue()
		}
	}
	if size != len(b.boxes) {
		return nil, fmt.Errorf("machine: SimBackend sized for %d ranks, wire requested for machine of %d", len(b.boxes), size)
	}
	if rank < 0 || rank >= size {
		return nil, fmt.Errorf("machine: SimBackend wire for rank %d of %d", rank, size)
	}
	return &simWire{boxes: b.boxes, inbox: b.boxes[rank]}, nil
}

// Close is a no-op: mailboxes hold no OS resources.
func (b *SimBackend) Close() error { return nil }

// simWire is a rank's raw endpoint on the mailbox backend.
type simWire struct {
	boxes []*PacketQueue
	inbox *PacketQueue
}

func (w *simWire) Deliver(pkt Packet)                         { w.boxes[pkt.To].Push(pkt) }
func (w *simWire) Pull(abort <-chan struct{}) (Packet, bool)  { return w.inbox.Pull(abort) }
func (w *simWire) PullTimeout(d time.Duration) (Packet, bool) { return w.inbox.PullTimeout(d) }
func (w *simWire) Depth() int                                 { return w.inbox.Depth() }
func (w *simWire) PacketCost(pkt Packet) int64                { return int64(len(pkt.Data)) }
func (w *simWire) OnDrop(func(Packet, string))                {}
