package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// PacketKind distinguishes raw wire datagrams.
type PacketKind int

const (
	// PacketData carries a logical message payload (or a transport's
	// retransmission of one).
	PacketData PacketKind = iota
	// PacketAck carries a transport acknowledgement. Acks move no logical
	// payload and are metered as zero-word wire messages.
	PacketAck
)

func (k PacketKind) String() string {
	switch k {
	case PacketData:
		return "data"
	case PacketAck:
		return "ack"
	}
	return fmt.Sprintf("PacketKind(%d)", int(k))
}

// Packet is one raw wire datagram. The logical Send/Recv API never sees
// packets; transports do, and fault injectors perturb them.
type Packet struct {
	From, To, Tag int
	// Seq is a transport-assigned per-(sender→receiver) sequence number
	// (0 under the direct transport, which needs none).
	Seq  int
	Kind PacketKind
	Data []float64
	// Check is a payload checksum set and verified by transports that
	// detect corruption; the direct transport ignores it.
	Check uint64
	// Epoch is the machine epoch the packet was delivered in, stamped by
	// the wire on Deliver. Every recovery relaunches the machine in a
	// later epoch (RunConfig.StartEpoch), so packets an earlier
	// incarnation left in a shared backend — stale retransmissions from
	// before the rollback — are fenced at the receiving end and never
	// reach a transport.
	Epoch int64
	// Recycle marks Data as eligible for the machine's payload pool once
	// the final consumer has copied it out (see Comm.RecvInto). Only a
	// transport that retains no reference to Data after delivery may set
	// it — the direct transport does; the reliable transport must not
	// (its retransmission window aliases the buffer), and a fault
	// injector duplicating a packet must clear it on the copy.
	Recycle bool
}

// Wire is a rank's raw endpoint on the simulated network: push a packet
// into any destination mailbox, pull the next packet addressed to this
// rank. Wire traffic is metered separately from the logical meters, so
// retransmissions and acks never perturb the communication counts the
// paper's theory bounds. Exactly one goroutine (the owning rank) may call
// Pull/PullTimeout on a given Wire.
type Wire interface {
	// Rank returns the owning processor's id in 0..P-1.
	Rank() int
	// Size returns P.
	Size() int
	// Deliver pushes pkt into the mailbox of pkt.To, metering wire words
	// and messages at the sender.
	Deliver(pkt Packet)
	// Pull blocks until a packet addressed to this rank arrives and
	// returns it, metering wire words at the receiver.
	Pull() Packet
	// PullTimeout is Pull with a deadline; ok is false on timeout.
	PullTimeout(d time.Duration) (Packet, bool)
	// Aborting reports whether the machine is being aborted (a
	// crash-recovery supervisor retiring it). A transport looping on
	// PullTimeout — waiting for an acknowledgement, say — must check it
	// each iteration and call Aborted() to unwind, because PullTimeout
	// itself never panics (it also runs inside park/linger loops that
	// must survive the abort).
	Aborting() bool
}

// Transport mediates a rank's logical Send/Recv over the raw wire. The
// direct transport maps them 1:1 onto packets; package fault provides a
// reliable transport (acks, retransmission, dedup, reordering repair)
// that preserves logical semantics over a faulty wire.
type Transport interface {
	Send(to, tag int, data []float64)
	// Recv blocks for the next message from (from, tag) and reports
	// whether its buffer may be recycled into the machine's payload pool
	// once the caller has copied it out (Comm.RecvInto). A transport that
	// retains or re-delivers payloads must return recycle == false.
	Recv(from, tag int) (data []float64, recycle bool)
	// Buffered returns the transport's buffer of messages pulled from the
	// wire ahead of their Recv; the stall watchdog reads its tallies.
	Buffered() *PendingBuffer
}

// TransportFactory builds one rank's transport around its raw wire
// endpoint. It is called once per rank, from that rank's goroutine.
type TransportFactory func(w Wire) Transport

// Idler is an optional Transport extension for protocols that must keep
// servicing the wire while their rank is blocked outside Send/Recv. A
// reliable (ack-based) transport needs both hooks: without them, a lost
// acknowledgement strands the sender once the receiver stops pulling its
// mailbox — at a barrier, or after its body returns.
//
// It stays optional because the direct transport has nothing to service:
// forcing an Idle on it would move its barrier off the allocation-free
// wake-slot path onto the release-channel one.
type Idler interface {
	Transport
	// Idle services incoming packets in full until stop is closed; the
	// machine calls it while the rank waits at a barrier.
	Idle(stop <-chan struct{})
	// Linger services protocol echoes only (e.g. re-acking duplicates of
	// already-delivered messages) until stop is closed; the machine calls
	// it after the rank's body returns, so peers retransmitting into this
	// rank's mailbox can still complete. A message the body never
	// received must NOT be acknowledged here — its sender is entitled to
	// an UnreachableError.
	Linger(stop <-chan struct{})
}

// link is the concrete Wire implementation: the machine's metering,
// epoch-stamping and abort-unwinding decorator over a backend's raw wire.
// Every backend — the in-memory SimBackend, a TCP or unix-socket netwire —
// gets identical Wire semantics because this layer is shared.
type link struct {
	m    *Machine
	rank int
	raw  BackendWire
	bw   BarrierWire // raw's distributed barrier; nil when it has none
}

func newLink(m *Machine, rank int, raw BackendWire) *link {
	l := &link{m: m, rank: rank, raw: raw}
	l.bw, _ = raw.(BarrierWire)
	if m.wireEvents {
		// Promote the wire's loss reports into the structured event
		// stream: one EventDrop per lost datagram. Wire-only — drops never
		// touch the logical meters the paper's bounds are checked against.
		raw.OnDrop(func(pkt Packet, reason string) {
			m.emit(rank, Event{Kind: EventDrop, From: rank, To: pkt.To, Tag: pkt.Tag, Words: len(pkt.Data), Step: -1, Wire: true})
		})
	}
	return l
}

func (l *link) Rank() int { return l.rank }
func (l *link) Size() int { return l.m.p }

func (l *link) Deliver(pkt Packet) {
	if pkt.To < 0 || pkt.To >= l.m.p {
		panic(fmt.Sprintf("machine: deliver to rank %d of %d", pkt.To, l.m.p))
	}
	pkt.Epoch = l.m.epoch
	l.m.ranks[l.rank].wireSent.add(l.raw.PacketCost(pkt))
	if l.m.wireEvents {
		l.m.emit(l.rank, Event{Kind: EventSend, From: l.rank, To: pkt.To, Tag: pkt.Tag, Words: len(pkt.Data), Step: -1, Wire: true})
	}
	l.raw.Deliver(pkt)
}

func (l *link) Pull() Packet {
	for {
		l.m.checkAbort()
		pkt, ok := l.raw.Pull(l.m.abortCh)
		if !ok {
			continue // the abort channel woke us; the check above unwinds
		}
		if pkt.Epoch != l.m.epoch {
			continue // stale retransmission from an earlier incarnation
		}
		l.received(pkt)
		return pkt
	}
}

func (l *link) PullTimeout(d time.Duration) (Packet, bool) {
	pkt, ok := l.raw.PullTimeout(d)
	if !ok || pkt.Epoch != l.m.epoch {
		// A stale-epoch packet reads as silence, never as a panic: this
		// path also serves the Idle/Linger/park loops, which must survive
		// an abort intact.
		return Packet{}, false
	}
	l.received(pkt)
	return pkt, true
}

// received meters (and traces) a packet the rank pulled off the wire.
func (l *link) received(pkt Packet) {
	l.m.ranks[l.rank].wireRecv.add(l.raw.PacketCost(pkt))
	if l.m.wireEvents {
		l.m.emit(l.rank, Event{Kind: EventRecv, From: pkt.From, To: l.rank, Tag: pkt.Tag, Words: len(pkt.Data), Step: -1, Wire: true})
	}
}

func (l *link) Aborting() bool { return l.m.aborting.Load() }

// directTransport is the default transport: a logical message is exactly
// one packet, delivery is exact and in order (the simulated network is
// perfect), so no acks, sequence numbers, or retransmission are needed.
// Packets pulled while waiting for another (from, tag) wait in buf.
type directTransport struct {
	w   Wire
	buf PendingBuffer
}

// NewDirectTransport returns the default transport over w. It is exported
// so fault injectors can compose it over a perturbed wire.
func NewDirectTransport(w Wire) Transport {
	return &directTransport{w: w}
}

func (t *directTransport) Send(to, tag int, data []float64) {
	// Recycle: the direct transport keeps no reference past Deliver, so
	// the receiver may return the buffer to the payload pool.
	t.w.Deliver(Packet{From: t.w.Rank(), To: to, Tag: tag, Kind: PacketData, Data: data, Recycle: true})
}

// Recv propagates the packet's Recycle mark so Comm.RecvInto can pool the
// buffer.
func (t *directTransport) Recv(from, tag int) ([]float64, bool) {
	if pkt, ok := t.buf.Pop(from, tag); ok {
		return pkt.Data, pkt.Recycle
	}
	for {
		pkt := t.w.Pull()
		if pkt.From == from && pkt.Tag == tag {
			return pkt.Data, pkt.Recycle
		}
		t.buf.Push(pkt)
	}
}

func (t *directTransport) Buffered() *PendingBuffer { return &t.buf }

// PendingBuffer holds the packets a transport pulled from the wire ahead
// of the Recv that wants them: a FIFO per (from, tag), with message and
// word tallies kept current on every push and pop. The zero value is
// ready to use. Only the owning rank writes; the lock lets the stall
// watchdog read the tallies (entries) while it does.
//
// A one-superstep exchange serves most receives from here, so the queues
// are held by pointer and live as long as the buffer: a push or pop
// touches the queue in place instead of copying it, with its packets, in
// and out of the map, and a (from, tag) that recurs every operation
// reuses its queue's storage.
type PendingBuffer struct {
	mu   sync.Mutex
	keys map[uint64]*pendingQueue // pendingKey(from, tag)
}

// pendingKey packs (from, tag) into one word, so the map takes its
// fast 64-bit-key path.
func pendingKey(from, tag int) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(tag)) }

type pendingQueue struct {
	pkts        []Packet // queued packets; pkts[head] is the oldest
	head        int
	msgs, words int // the queued packets plus those counted by Tally
}

// Push appends pkt to its (From, Tag) queue.
func (b *PendingBuffer) Push(pkt Packet) {
	b.mu.Lock()
	q := b.queue(pkt.From, pkt.Tag)
	if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		// Full with popped slots in front: slide the live packets down
		// instead of growing the storage.
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts, q.head = q.pkts[:n], 0
	}
	q.pkts = append(q.pkts, pkt)
	q.msgs++
	q.words += len(pkt.Data)
	b.mu.Unlock()
}

// Tally adds n (+1 or -1) copies of pkt to its (From, Tag) tallies without
// queuing it, so packets a transport holds elsewhere — the reliable
// transport's out-of-sequence arrivals — are reported as pending too.
func (b *PendingBuffer) Tally(pkt Packet, n int) {
	b.mu.Lock()
	q := b.queue(pkt.From, pkt.Tag)
	q.msgs += n
	q.words += n * len(pkt.Data)
	b.mu.Unlock()
}

// queue returns the (from, tag) queue, creating it; b.mu must be held.
func (b *PendingBuffer) queue(from, tag int) *pendingQueue {
	if b.keys == nil {
		b.keys = make(map[uint64]*pendingQueue)
	}
	key := pendingKey(from, tag)
	q := b.keys[key]
	if q == nil {
		q = &pendingQueue{}
		b.keys[key] = q
	}
	return q
}

// Pop removes and returns the oldest packet queued for (from, tag). The
// buffer keeps no reference to the packet it hands out. A miss takes no
// lock: the owning rank is the only writer, so its reads cannot race.
func (b *PendingBuffer) Pop(from, tag int) (Packet, bool) {
	q := b.keys[pendingKey(from, tag)]
	if q == nil || q.head == len(q.pkts) {
		return Packet{}, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	pkt := q.pkts[q.head]
	q.pkts[q.head] = Packet{} // drop the payload reference
	if q.head++; q.head == len(q.pkts) {
		q.pkts, q.head = q.pkts[:0], 0
	}
	q.msgs--
	q.words -= len(pkt.Data)
	return pkt, true
}

// entries summarizes the buffer for diagnostics: one entry per (from,
// tag) with pending messages, sorted by from, then tag.
func (b *PendingBuffer) entries() []PendingEntry {
	if b == nil {
		return nil // the rank's transport is not built yet
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []PendingEntry
	for key, q := range b.keys {
		if q.msgs > 0 {
			out = append(out, PendingEntry{From: int(int32(key >> 32)), Tag: int(int32(key)), Msgs: q.msgs, Words: q.words})
		}
	}
	slices.SortFunc(out, func(x, y PendingEntry) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.Tag, y.Tag))
	})
	return out
}
