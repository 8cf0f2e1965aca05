// Package machine simulates the α-β-γ (MPI-style) parallel machine of
// §3.1: P processors, each with private local memory, communicating over a
// fully connected network by sending and receiving messages.
//
// Because the paper's results are statements about counted communication —
// words sent and received per processor (bandwidth cost) and message counts
// (latency cost) — a simulator that executes the real data movement and
// meters it exactly reproduces the quantities the theory bounds. Each
// processor runs as a goroutine; messages are copied (distributed memory —
// no sharing), delivered through per-rank mailboxes, and metered at both
// endpoints.
//
// The package is layered: logical point-to-point Send/Recv with tags (plus
// barriers and per-rank counters) ride on a pluggable
// Transport over a raw packet Wire. The default direct transport maps one
// logical message to one packet on the perfect simulated network; package
// fault perturbs the wire (drop/duplicate/reorder/corrupt/stall/crash) and
// provides a reliable transport that restores logical semantics on top.
// Logical and wire traffic are metered separately, so recovery overhead
// never contaminates the communication counts the theory is compared
// against. Collectives are layered on top in package collective.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Machine is the shared state of one simulated run.
type Machine struct {
	p           int
	be          Backend     // packet layer (SimBackend unless configured)
	links       []*link     // per-rank wires over the backend; nil for remote ranks
	localRanks  []int       // ranks running in this process, ascending
	isLocal     []bool      // indexed by rank
	distributed bool        // len(localRanks) < p: peers live in other processes
	ranks       []rankState // per-rank meters, block state and payload pool
	barrier     *barrier
	observer    func(Event)
	wireEvents  bool
	obsState    []rankObsState
	start       time.Time // incarnation start; Event.Wall is measured from it

	// Crash-recovery state (see handle.go). epoch is the incarnation's
	// recovery epoch, fixed at start: the wire stamps it on every packet
	// and fences packets of any other epoch, so traffic an earlier
	// incarnation left in a shared backend never reaches this one.
	// aborting/abortCh unwind blocked ranks out of the current operation
	// when the machine is being retired; recovering relaxes the watchdog's
	// treatment of crashed ranks, because a supervisor will relaunch the
	// machine.
	epoch      int64
	aborting   atomic.Bool
	abortCh    chan struct{}
	recovering bool
}

// checkAbort unwinds the calling rank out of the current operation when
// an abort is in progress.
func (m *Machine) checkAbort() {
	if m.aborting.Load() {
		panic(abortPanic{})
	}
}

// abortPanic is the sentinel a rank panics with to unwind out of a
// blocking machine operation during an abort. A resident body recovers
// it and returns; it is never a run error.
type abortPanic struct{}

// IsAbort reports whether a recovered panic value is the abort sentinel
// (see Handle.Abort). Resident bodies use it to tell "this incarnation
// is being retired, return" from a genuine rank death.
func IsAbort(v any) bool {
	_, ok := v.(abortPanic)
	return ok
}

// Aborted panics with the abort sentinel. Transports that loop on
// PullTimeout call it when Wire.Aborting reports an abort, since the
// timeout path deliberately never panics on its own.
func Aborted() {
	panic(abortPanic{})
}

// counter is one direction of a rank's traffic meter. The fields are
// atomic because a recovery supervisor reads (and rolls back) counters
// from the host while a parked rank's transport may still be servicing
// a peer's late retransmission; everything else is single-writer per
// rank.
type counter struct {
	words atomic.Int64
	msgs  atomic.Int64
}

func (c *counter) add(words int64) {
	c.words.Add(words)
	c.msgs.Add(1)
}

func (c *counter) set(words, msgs int64) {
	c.words.Store(words)
	c.msgs.Store(msgs)
}

// rankState is everything a rank's own operations write: its eight
// traffic counters, its monitor-visible block state, and the pool its
// Sends draw payload copies from. The rank is the only writer of the
// meters and the block state (the host and the watchdog only read them,
// or write while the rank is parked), so nothing on a rank's hot path is
// a machine-wide lock or counter.
type rankState struct {
	sent, recv         counter // logical, metered at Send and Recv
	wireSent, wireRecv counter // raw packets pushed and pulled, retransmits and acks included
	diag               rankDiag
	pool               payloadPool // recycles this rank's Send copies (see pool.go)
}

// Comm is a rank's handle to the machine. Exactly one goroutine may use a
// given Comm.
type Comm struct {
	m     *Machine
	rank  int
	t     Transport
	idler Idler // t's Idler side; nil when t has none
	diag  *rankDiag
	l     *link // the rank's Wire (its BarrierWire serves distributed barriers)
}

// Rank returns this processor's id in 0..P-1.
func (c *Comm) Rank() int { return c.rank }

// Size returns P.
func (c *Comm) Size() int { return c.m.p }

// Send transmits a copy of data to the destination rank with the given
// tag, metering len(data) words. Sending to self is an error by panic —
// local data never counts as communication in the model. Under the direct
// transport Send does not block; a reliable transport blocks until the
// message is acknowledged.
func (c *Comm) Send(to, tag int, data []float64) {
	if to == c.rank {
		panic(fmt.Sprintf("machine: rank %d sending to itself", to))
	}
	if to < 0 || to >= c.m.p {
		panic(fmt.Sprintf("machine: send to rank %d of %d", to, c.m.p))
	}
	c.m.checkAbort()
	rs := &c.m.ranks[c.rank]
	cp := rs.pool.get(len(data))
	copy(cp, data)
	rs.sent.add(int64(len(data)))
	c.m.emit(c.rank, Event{Kind: EventSend, From: c.rank, To: to, Tag: tag, Words: len(data), Step: c.m.obsState[c.rank].step})
	c.diag.setBlocked(BlockSend, to, tag)
	c.t.Send(to, tag, cp)
	c.diag.setRunning()
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. Messages from the same (source, tag) are delivered
// in send order.
func (c *Comm) Recv(from, tag int) []float64 {
	data, _ := c.recv(from, tag)
	return data
}

// RecvInto is Recv into a caller-owned buffer: it blocks until a message
// with the given source and tag arrives, copies the payload into dst, and
// returns the payload length. Metering and trace events are identical to
// Recv. When the payload is poolable (delivered by the direct transport,
// which holds no reference after delivery), the internal buffer is
// recycled for future Sends — after warm-up a steady-state exchange loop
// built on Send/RecvInto/Barrier allocates nothing.
//
// The payload must fit: a message longer than dst panics, because a
// receiver that preplans exact message sizes (parallel.Session) can only
// reach that state through a protocol bug.
func (c *Comm) RecvInto(from, tag int, dst []float64) int {
	data, recycle := c.recv(from, tag)
	if len(data) > len(dst) {
		panic(fmt.Sprintf("machine: rank %d RecvInto(%d, %d): payload %d words, buffer %d",
			c.rank, from, tag, len(data), len(dst)))
	}
	copy(dst, data)
	if recycle {
		// Back to the sender's pool: a rank that only sends would
		// otherwise allocate every payload copy afresh.
		c.m.ranks[from].pool.put(data)
	}
	return len(data)
}

// recv is the metered, traced transport receive behind Recv and RecvInto.
func (c *Comm) recv(from, tag int) ([]float64, bool) {
	c.m.checkAbort()
	c.diag.setBlocked(BlockRecv, from, tag)
	data, recycle := c.t.Recv(from, tag)
	c.diag.setRunning()
	c.m.ranks[c.rank].recv.add(int64(len(data)))
	c.m.emit(c.rank, Event{Kind: EventRecv, From: from, To: c.rank, Tag: tag, Words: len(data), Step: c.m.obsState[c.rank].step})
	return data, recycle
}

// Barrier blocks until all P ranks have entered it. A transport that
// implements Idler keeps servicing the wire while waiting, so peers
// retransmitting a message whose ack was lost are still answered.
//
// In a distributed run (some ranks in other processes) the in-process
// counting barrier cannot see the remote ranks, so the wait is delegated
// to the backend's BarrierWire — the coordinator counts all P arrivals
// and hands back the global generation. The Idler servicing loop still
// applies there: socket backends drain frames into the inbox on dedicated
// reader goroutines, but only the transport can acknowledge them, so a
// rank parked at the control-plane barrier without idling would strand
// any peer retransmitting a message whose ack was lost.
func (c *Comm) Barrier() {
	c.m.checkAbort()
	c.diag.setBlocked(BlockBarrier, -1, -1)
	var gen int
	if c.m.distributed {
		bw := c.l.bw // non-nil: StartWith rejects distributed runs without one
		epoch, abort := c.m.epoch, c.m.abortCh
		var g int
		var bok bool
		if c.idler != nil {
			// BarrierWire.Barrier blocks on the control plane only, so it
			// is safe off the rank goroutine; the rank goroutine itself
			// keeps servicing the data plane (acks, dedup) until release.
			// The channel close orders g/bok before the reads below.
			done := make(chan struct{})
			go func() {
				defer close(done)
				g, bok = bw.Barrier(epoch, abort)
			}()
			c.idler.Idle(done)
		} else {
			g, bok = bw.Barrier(epoch, abort)
		}
		if !bok {
			panic(abortPanic{})
		}
		gen = g
	} else if c.idler != nil {
		ch, g := c.m.barrier.arriveChan(c.rank)
		c.idler.Idle(ch)
		// An abort closes the release channel early; a barrier that
		// happened to complete at the same moment is retried with the rest
		// of the operation, which is harmless — the replay reruns it.
		c.m.checkAbort()
		gen = g
	} else {
		gen = c.m.barrier.await(c.rank)
		if gen < 0 {
			panic(abortPanic{})
		}
	}
	c.diag.setRunning()
	c.m.emit(c.rank, Event{Kind: EventBarrier, From: c.rank, To: c.rank, Step: gen})
}

// AwaitHost runs wait with this rank parked as blocked on host input: a
// resident body (parallel.Session) calls it around its op-queue receive so
// the stall watchdog can tell an idle session — every unfinished rank
// waiting for the host to feed it work — from a genuine deadlock. wait
// typically blocks on a host-owned channel; returning from it counts as
// progress.
//
// Like Barrier, a parked rank keeps servicing the wire when the transport
// implements Idler: peers may still be finishing the previous operation
// (or retransmitting a message whose ack was lost), and a rank that went
// quiet the moment its own part completed would stall them forever.
func (c *Comm) AwaitHost(wait func()) {
	c.diag.parkForHost()
	if c.idler != nil {
		stop := make(chan struct{})
		go func() {
			wait()
			close(stop)
		}()
		c.idler.Idle(stop)
	} else {
		wait()
	}
	c.diag.setRunning()
}

// Meters is a point-in-time snapshot of one rank's eight traffic
// counters. A resident body can subtract two snapshots to attribute
// traffic to a single operation of a long-lived run.
type Meters struct {
	SentWords, RecvWords, SentMsgs, RecvMsgs                 int64
	WireSentWords, WireRecvWords, WireSentMsgs, WireRecvMsgs int64
}

// Sub returns the counter deltas m - o.
func (m Meters) Sub(o Meters) Meters {
	return Meters{
		SentWords: m.SentWords - o.SentWords, RecvWords: m.RecvWords - o.RecvWords,
		SentMsgs: m.SentMsgs - o.SentMsgs, RecvMsgs: m.RecvMsgs - o.RecvMsgs,
		WireSentWords: m.WireSentWords - o.WireSentWords, WireRecvWords: m.WireRecvWords - o.WireRecvWords,
		WireSentMsgs: m.WireSentMsgs - o.WireSentMsgs, WireRecvMsgs: m.WireRecvMsgs - o.WireRecvMsgs,
	}
}

// Meters returns this rank's current counter snapshot.
func (c *Comm) Meters() Meters { return c.m.meters(c.rank) }

// meters reads one rank's eight counters — the single read path behind
// Comm.Meters, Handle.RankMeters and the run Report.
func (m *Machine) meters(r int) Meters {
	rs := &m.ranks[r]
	return Meters{
		SentWords: rs.sent.words.Load(), RecvWords: rs.recv.words.Load(),
		SentMsgs: rs.sent.msgs.Load(), RecvMsgs: rs.recv.msgs.Load(),
		WireSentWords: rs.wireSent.words.Load(), WireRecvWords: rs.wireRecv.words.Load(),
		WireSentMsgs: rs.wireSent.msgs.Load(), WireRecvMsgs: rs.wireRecv.msgs.Load(),
	}
}

// SentWords returns the words this rank has sent so far.
func (c *Comm) SentWords() int64 { return c.m.ranks[c.rank].sent.words.Load() }

// RecvWords returns the words this rank has received so far.
func (c *Comm) RecvWords() int64 { return c.m.ranks[c.rank].recv.words.Load() }

// SentMsgs returns the number of messages this rank has sent so far.
func (c *Comm) SentMsgs() int64 { return c.m.ranks[c.rank].sent.msgs.Load() }

// RecvMsgs returns the number of messages this rank has received so far.
func (c *Comm) RecvMsgs() int64 { return c.m.ranks[c.rank].recv.msgs.Load() }

// barrier is a reusable counting barrier with two wait paths: a wake-slot
// path for plain transports (no allocation per generation — part of the
// zero-allocation steady-state exchange) and a release-channel path for
// Idler transports, which need something they can select on while
// servicing the wire. The channel is created lazily, only for generations
// in which a channel-waiter actually arrives, so direct-transport runs
// never pay for it.
//
// Arrival is one atomic add. Only the last arriver takes the mutex, to
// turn the generation over, and it then wakes each waiting rank through
// that rank's own one-token slot — a waiter never re-takes a shared lock
// on its way out, so releasing P ranks costs P channel sends instead of P
// contended re-acquisitions of one mutex. A waiter re-checks the
// generation on every wake, so a stale token (left by an abort, or in the
// slot of a rank that waited on the channel path) costs one spurious
// wake-up and nothing else.
type barrier struct {
	ranks   []int           // participants: the machine's local ranks
	arrived atomic.Int64    // arrivals in the current generation
	gen     atomic.Int64    // completed generations; never reset
	aborted atomic.Bool     // abort in progress: release everyone, arrivals void
	wake    []chan struct{} // per-rank wake slot (capacity 1), indexed by rank

	mu      sync.Mutex    // guards release and the generation turnover
	release chan struct{} // nil until an Idler arrives this generation
}

func newBarrier(p int, ranks []int) *barrier {
	b := &barrier{ranks: ranks, wake: make([]chan struct{}, p)}
	for _, r := range ranks {
		b.wake[r] = make(chan struct{}, 1)
	}
	return b
}

// arrive registers rank's arrival and, when it is the last, completes
// the generation.
func (b *barrier) arrive(rank int) {
	if b.arrived.Add(1) < int64(len(b.ranks)) {
		return
	}
	b.arrived.Store(0) // nobody arrives again before the wake-up below
	b.mu.Lock()
	b.gen.Add(1)
	if b.release != nil {
		close(b.release)
		b.release = nil
	}
	b.mu.Unlock()
	b.wakeAll(rank)
}

// wakeAll drops a token into every other participant's wake slot.
func (b *barrier) wakeAll(except int) {
	for _, r := range b.ranks {
		if r != except {
			select {
			case b.wake[r] <- struct{}{}:
			default: // a token is already there
			}
		}
	}
}

// await arrives and blocks until the generation completes, returning the
// generation index (identical for all P participants of one
// synchronization — the trace's barrier identifier). Allocation-free.
// Returns -1 when the wait was cut short by an abort.
func (b *barrier) await(rank int) int {
	if b.aborted.Load() {
		return -1
	}
	gen := b.gen.Load()
	b.arrive(rank)
	for b.gen.Load() == gen {
		if b.aborted.Load() {
			return -1 // released by the abort, not by the last arriver
		}
		<-b.wake[rank]
	}
	return int(gen)
}

// arriveChan arrives and hands back the current generation's release
// channel — closed when the last rank arrives — so a waiting rank can
// select on it while doing other work (see Comm.Barrier).
func (b *barrier) arriveChan(rank int) (<-chan struct{}, int) {
	b.mu.Lock()
	if b.aborted.Load() {
		b.mu.Unlock()
		ch := make(chan struct{})
		close(ch)
		return ch, -1
	}
	if b.release == nil {
		b.release = make(chan struct{})
	}
	ch, gen := b.release, int(b.gen.Load())
	b.mu.Unlock()
	b.arrive(rank)
	return ch, gen
}

// abort releases every waiter with a void generation; every later
// arrival is void too — an aborted machine is being retired and never
// synchronizes again.
func (b *barrier) abort() {
	b.aborted.Store(true)
	b.mu.Lock()
	if b.release != nil {
		close(b.release)
		b.release = nil
	}
	b.mu.Unlock()
	b.wakeAll(-1)
}

// RunConfig bundles the optional knobs of a simulated run.
type RunConfig struct {
	// Timeout arms the stall watchdog: when positive and no rank enters
	// or leaves a machine operation for this long, the run aborts with a
	// *DeadlockError naming each blocked rank. Zero disables the
	// watchdog. (Unlike a global wall-clock limit, a run that keeps
	// making progress is never killed.)
	Timeout time.Duration
	// Observer receives every structured trace event, invoked
	// synchronously from the goroutine of the rank the event occurs on;
	// it must be safe for concurrent use (see obs.Recorder for a
	// ready-made collector). Logical send/recv events sum exactly to the
	// Report's logical meters; retransmissions and other recovery
	// traffic appear only as wire events (see WireEvents).
	Observer func(Event)
	// WireEvents additionally emits an event for every raw wire datagram
	// (Event.Wire == true): retransmissions, injected duplicates, and
	// zero-word acks. Off by default — wire traffic can dwarf the
	// logical trace under aggressive fault plans.
	WireEvents bool
	// Transport builds each rank's transport; nil selects the direct
	// transport (exact in-order delivery, no protocol overhead).
	Transport TransportFactory
	// Backend supplies the raw packet layer; nil selects the in-memory
	// SimBackend. See internal/netwire for TCP and unix-socket backends.
	// The machine does not close the backend — its creator does.
	Backend Backend
	// BackendFactory, consulted only when Backend is nil, builds a fresh
	// backend per machine incarnation. Unlike Backend, the machine owns
	// the factory's product and closes it when the incarnation's last
	// rank goroutine exits — the shape a session pool needs, where one
	// options template launches many concurrent machines and a shared
	// socket backend would cross their packet streams.
	BackendFactory func() (Backend, error)
	// LocalRanks names the ranks this process runs; nil means all P (the
	// single-process default). A distributed launcher starts one machine
	// per process, each naming its own rank(s) here over a shared
	// network backend; barriers then require the backend to provide a
	// BarrierWire, and the stall watchdog should stay disabled (it
	// cannot see remote progress).
	LocalRanks []int
	// StartEpoch is the recovery epoch the machine runs in (normally
	// zero). Every recovery relaunches the machine one epoch later — a
	// rank process to the cluster's current epoch, a recovering session
	// to its previous incarnation's epoch plus one — so packets of an
	// earlier incarnation are fenced off, and a relaunched rank's own
	// packets are not fenced off by its peers.
	StartEpoch int64
	// OnRankDown, when set, is invoked once from a dying rank's goroutine
	// after its body panics. Setting it marks the run as supervised: the
	// stall watchdog then treats crashed ranks as non-blocking while the
	// survivors park, because a supervisor (parallel.Session's recovery
	// loop) is expected to retire the machine and relaunch it. The callback must not block for long and must be
	// safe for concurrent invocation from multiple dying ranks.
	OnRankDown func(rank int, err error)
}

// RunWith is the single run entry point: it executes body on P simulated
// processors under the given configuration (transport selection, stall
// watchdog, trace observer, backend) and returns the metered
// report. It is StartWith followed by Wait; callers that supervise the
// run — aborting it to relaunch a fresh incarnation — use the Handle form
// directly (see handle.go).
func RunWith(p int, cfg RunConfig, body func(c *Comm)) (*Report, error) {
	h, err := StartWith(p, cfg, body)
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// report snapshots the machine's cumulative counters.
func (m *Machine) reportNow() *Report {
	p := m.p
	rep := &Report{
		P:             p,
		SentWords:     make([]int64, p),
		RecvWords:     make([]int64, p),
		SentMsgs:      make([]int64, p),
		RecvMsgs:      make([]int64, p),
		WireSentWords: make([]int64, p),
		WireRecvWords: make([]int64, p),
		WireSentMsgs:  make([]int64, p),
		WireRecvMsgs:  make([]int64, p),
	}
	for i := 0; i < p; i++ {
		mt := m.meters(i)
		rep.SentWords[i], rep.RecvWords[i] = mt.SentWords, mt.RecvWords
		rep.SentMsgs[i], rep.RecvMsgs[i] = mt.SentMsgs, mt.RecvMsgs
		rep.WireSentWords[i], rep.WireRecvWords[i] = mt.WireSentWords, mt.WireRecvWords
		rep.WireSentMsgs[i], rep.WireRecvMsgs[i] = mt.WireSentMsgs, mt.WireRecvMsgs
	}
	return rep
}

// watch is the stall monitor: it samples every local rank's progress
// counter and declares deadlock only after a full window in which no
// rank entered or left a machine operation.
func (m *Machine) watch(done <-chan struct{}, timeout time.Duration) error {
	poll := timeout / 8
	if poll < 500*time.Microsecond {
		poll = 500 * time.Microsecond
	}
	if poll > 100*time.Millisecond {
		poll = 100 * time.Millisecond
	}
	last := m.progress()
	lastChange := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return nil
		case <-ticker.C:
			if cur := m.progress(); cur != last {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				if m.hostQuiescent() {
					// An idle resident session: every unfinished rank
					// is parked in AwaitHost, waiting for the host to
					// feed it work. Not a deadlock — the host holds
					// the ball.
					lastChange = time.Now()
					continue
				}
				return m.deadlockError(timeout)
			}
		}
	}
}

// progress sums the local ranks' progress counters. Each counter only
// grows, so the sum changes exactly when some rank moved.
func (m *Machine) progress() uint64 {
	var sum uint64
	for _, r := range m.localRanks {
		sum += m.ranks[r].diag.progress()
	}
	return sum
}

// hostQuiescent reports whether at least one local rank is parked in
// AwaitHost and every other unfinished local rank is too — the signature
// of an idle resident session rather than a stalled protocol. Remote
// ranks are invisible here, which is one of the reasons the watchdog
// stays off in distributed rank processes.
func (m *Machine) hostQuiescent() bool {
	idle := false
	for _, r := range m.localRanks {
		kind, _, _ := m.ranks[r].diag.block()
		switch kind {
		case BlockDone:
		case BlockCrashed:
			// A crashed rank can never finish its operation, so parked
			// survivors are not "idle" — they are waiting for a completion
			// that will never come. Let the watchdog report it — unless a
			// supervisor is attached (OnRankDown), in which case the crash
			// is being handled and parked survivors really are idle.
			if !m.recovering {
				return false
			}
		case BlockHost:
			idle = true
		default:
			return false
		}
	}
	return idle
}

// deadlockError snapshots every unfinished local rank's diagnostic state.
func (m *Machine) deadlockError(timeout time.Duration) *DeadlockError {
	e := &DeadlockError{P: m.p, Timeout: timeout}
	for _, r := range m.localRanks {
		kind, peer, tag := m.ranks[r].diag.block()
		switch kind {
		case BlockDone:
			continue
		case BlockCrashed:
			e.Crashed = append(e.Crashed, r)
			continue
		}
		e.Waits = append(e.Waits, RankWait{
			Rank:         r,
			Kind:         kind,
			Peer:         peer,
			Tag:          tag,
			InboxPackets: m.links[r].raw.Depth(),
			Pending:      m.ranks[r].diag.pending.Load().entries(),
		})
	}
	return e
}

// panicError converts recorded rank panics into the run error, giving
// fault-typed panics (injected crashes, exhausted retransmission budgets)
// structured error values.
func (m *Machine) panicError() error {
	var generic error
	var unreach *UnreachableError
	var crash *CrashError
	for _, rank := range m.localRanks {
		pv := m.ranks[rank].diag.panicValue()
		switch v := pv.(type) {
		case nil:
		case CrashError:
			if crash == nil {
				c := v
				crash = &c
			}
		case UnreachableError:
			if unreach == nil {
				u := v
				unreach = &u
			}
		default:
			if generic == nil {
				generic = fmt.Errorf("machine: rank %d panicked: %v", rank, v)
			}
		}
	}
	switch {
	case crash != nil:
		return *crash
	case unreach != nil:
		return *unreach
	default:
		return generic
	}
}
