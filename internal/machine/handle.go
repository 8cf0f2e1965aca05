package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Handle is a running simulated machine with supervisor access: beyond
// waiting for completion (the RunWith path), a supervisor can abort the
// machine — every rank blocked in a machine operation unwinds — and wait
// for every rank goroutine to exit before it launches the next
// incarnation. Crash recovery never repairs a machine in place: both
// parallel.Session's recovery loop and the cluster's rank processes
// retire the incarnation and start a fresh one in the next epoch
// (RunConfig.StartEpoch), carrying meters and trace sequence numbers
// across with RankMeters/RestoreMeters and RankEventSeq/RestoreEventSeq.
//
// Supervisor methods (Abort, RestoreMeters, RestoreEventSeq, Emit) are
// called from one host goroutine; RankMeters is safe whenever the rank in
// question is parked, crashed, or done.
type Handle struct {
	m       *Machine
	cfg     RunConfig
	factory TransportFactory
	body    func(c *Comm)

	// Two completion stages: bodies counts returned (or panicked) rank
	// bodies; alive counts goroutines not yet exited, and done closes
	// when it reaches zero. Between the two, a rank whose transport
	// implements Idler lingers — answering peers' retransmissions — until
	// every body has returned, so a lost final ack cannot strand a
	// still-running sender. Crashed ranks do not linger: their silence is
	// the fault being modelled.
	bodies     sync.WaitGroup
	stopLinger chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
	alive      atomic.Int64 // outstanding rank goroutines
	ownedBE    Backend      // built by cfg.BackendFactory; closed with done
}

// StartWith launches body on the ranks this process owns (all P by
// default; cfg.LocalRanks restricts to a subset for distributed runs) and
// returns without waiting. RunWith is StartWith + Wait.
func StartWith(p int, cfg RunConfig, body func(c *Comm)) (*Handle, error) {
	if p < 1 {
		return nil, fmt.Errorf("machine: P = %d", p)
	}
	be := cfg.Backend
	var owned Backend // factory-built: closed when the last rank goroutine exits
	if be == nil && cfg.BackendFactory != nil {
		b, err := cfg.BackendFactory()
		if err != nil {
			return nil, fmt.Errorf("machine: backend factory: %w", err)
		}
		be, owned = b, b
	}
	if be == nil {
		be = NewSimBackend()
	}
	locals := cfg.LocalRanks
	if locals == nil {
		locals = make([]int, p)
		for i := range locals {
			locals[i] = i
		}
	}
	if len(locals) == 0 {
		return nil, fmt.Errorf("machine: no local ranks")
	}
	isLocal := make([]bool, p)
	for _, r := range locals {
		if r < 0 || r >= p {
			return nil, fmt.Errorf("machine: local rank %d of %d", r, p)
		}
		if isLocal[r] {
			return nil, fmt.Errorf("machine: local rank %d listed twice", r)
		}
		isLocal[r] = true
	}
	m := &Machine{
		p:           p,
		be:          be,
		links:       make([]*link, p),
		localRanks:  append([]int(nil), locals...),
		isLocal:     isLocal,
		distributed: len(locals) < p,
		ranks:       make([]rankState, p),
		observer:    cfg.Observer,
		wireEvents:  cfg.WireEvents,
		obsState:    make([]rankObsState, p),
		epoch:       cfg.StartEpoch,
		abortCh:     make(chan struct{}),
		recovering:  cfg.OnRankDown != nil,
		start:       time.Now(),
	}
	for r := range m.obsState {
		m.obsState[r].step = -1
	}
	m.barrier = newBarrier(p, m.localRanks)
	for _, r := range locals {
		w, err := be.NewWire(r, p)
		if err == nil {
			m.links[r] = newLink(m, r, w)
			if m.distributed && m.links[r].bw == nil {
				err = fmt.Errorf("machine: distributed run (%d of %d ranks local) over %T, which provides no BarrierWire", len(locals), p, w)
			}
		}
		if err != nil {
			if owned != nil {
				owned.Close()
			}
			return nil, err
		}
	}
	factory := cfg.Transport
	if factory == nil {
		factory = NewDirectTransport
	}
	h := &Handle{
		m:          m,
		cfg:        cfg,
		factory:    factory,
		body:       body,
		stopLinger: make(chan struct{}),
		done:       make(chan struct{}),
		ownedBE:    owned,
	}
	h.alive.Add(int64(len(locals))) // before any goroutine can exit and close done
	h.bodies.Add(len(locals))
	for _, rank := range locals {
		go h.runRank(rank)
	}
	go func() {
		h.bodies.Wait()
		h.endLinger()
	}()
	return h, nil
}

func (h *Handle) endLinger() { h.stopOnce.Do(func() { close(h.stopLinger) }) }

func (h *Handle) runRank(rank int) {
	defer func() {
		if h.alive.Add(-1) == 0 {
			close(h.done)
			if h.ownedBE != nil {
				h.ownedBE.Close()
			}
		}
	}()
	m := h.m
	d := &m.ranks[rank].diag
	c := &Comm{m: m, rank: rank, diag: d, l: m.links[rank]}
	c.t = h.factory(c.l)
	d.pending.Store(c.t.Buffered())
	c.idler, _ = c.t.(Idler)
	var panicVal any
	panicked := func() (panicked bool) {
		defer h.bodies.Done()
		defer func() {
			if r := recover(); r != nil {
				d.setPanic(r)
				panicVal = r
				panicked = true
			}
		}()
		h.body(c)
		return false
	}()
	if panicked {
		if h.cfg.OnRankDown != nil {
			h.cfg.OnRankDown(rank, panicToError(rank, panicVal))
		}
		return
	}
	d.setDone()
	if c.idler != nil {
		c.idler.Linger(h.stopLinger)
	}
}

// panicToError converts a rank's panic value into the structured error
// the run would surface for it.
func panicToError(rank int, v any) error {
	switch e := v.(type) {
	case CrashError:
		return e
	case UnreachableError:
		return e
	default:
		return fmt.Errorf("machine: rank %d panicked: %v", rank, v)
	}
}

// Wait blocks until every rank goroutine has exited (running the stall
// watchdog when configured) and returns the cumulative report. Call it
// exactly once, after the resident body has been released (op channels
// closed) or to collect a watchdog/crash failure.
func (h *Handle) Wait() (*Report, error) {
	if h.cfg.Timeout > 0 {
		if err := h.m.watch(h.done, h.cfg.Timeout); err != nil {
			h.endLinger() // release finished ranks still answering retransmits
			return nil, err
		}
	} else {
		<-h.done
	}
	if err := h.m.panicError(); err != nil {
		return nil, err
	}
	return h.m.reportNow(), nil
}

// Epoch returns the machine's recovery epoch (RunConfig.StartEpoch).
func (h *Handle) Epoch() int64 { return h.m.epoch }

// Abort starts retiring the machine: every rank blocked inside a machine
// operation (Send ack-waits, Recv, Barrier) panics with the abort
// sentinel the moment it next touches the machine, and a resident body
// recovers the sentinel and returns. Parked ranks are unaffected — their
// AwaitHost wait is host input, not machine work — and leave once the
// host stops feeding them. An aborted machine never runs another
// operation. Idempotent.
func (h *Handle) Abort() {
	m := h.m
	if !m.aborting.Swap(true) {
		close(m.abortCh)
	}
	m.barrier.abort()
}

// Exited returns a channel closed once every local rank goroutine has
// exited, lingering ones included. Unlike Wait, whose watchdog can report
// a stalled machine while its ranks still run, it is the point after
// which nothing of this incarnation touches the backend or the body's
// state — where a supervisor may relaunch over a shared backend.
func (h *Handle) Exited() <-chan struct{} { return h.done }

// CrashedRanks lists the local ranks whose bodies have panicked. A remote
// rank's death is an OS-process event its own supervisor observes; this
// machine only ever sees the silence.
func (h *Handle) CrashedRanks() []int {
	var out []int
	for _, r := range h.m.localRanks {
		kind, _, _ := h.m.ranks[r].diag.block()
		if kind == BlockCrashed {
			out = append(out, r)
		}
	}
	return out
}

// RankMeters reads one rank's counter snapshot from the host. Valid
// whenever the rank cannot be mid-operation: parked, crashed, done — or
// the whole machine dead (unlike Comm.Meters, no live rank goroutine is
// needed, which is what a relaunch relies on to carry counters across
// incarnations).
func (h *Handle) RankMeters(rank int) Meters { return h.m.meters(rank) }

// RestoreMeters overwrites one rank's logical counters with mt — the
// rollback that makes logical meters count committed work exactly once.
// With wire set, the wire counters are overwritten too (a relaunch
// carries cumulative wire totals onto the fresh machine); otherwise they
// keep accumulating, which is where recovery overhead is supposed to
// show.
func (h *Handle) RestoreMeters(rank int, mt Meters, wire bool) {
	rs := &h.m.ranks[rank]
	rs.sent.set(mt.SentWords, mt.SentMsgs)
	rs.recv.set(mt.RecvWords, mt.RecvMsgs)
	if wire {
		rs.wireSent.set(mt.WireSentWords, mt.WireSentMsgs)
		rs.wireRecv.set(mt.WireRecvWords, mt.WireRecvMsgs)
	}
}

// Emit injects a trace event on a rank's stream from the host — recovery
// markers (EventRankDown, EventRecoveryBegin, EventRecoveryEnd) land in
// the same (rank, seq) order as the rank's own events. Only legal while
// the rank is parked, crashed, or done.
func (h *Handle) Emit(rank int, e Event) {
	h.m.emit(rank, e)
}

// RankEventSeq returns the sequence number the rank's next emitted event
// will carry. A recovery supervisor records it at checkpoint time so a
// later rollback can mark — via the EventRecoveryEnd Step field — exactly
// which of the rank's events belong to the aborted attempt.
func (h *Handle) RankEventSeq(rank int) int64 {
	return h.m.obsState[rank].seq.Load()
}

// RestoreEventSeq overwrites a rank's event sequence counter. A relaunch
// uses it to carry per-rank trace ordering onto a fresh machine, whose
// counters would otherwise restart at zero and scramble the canonical
// (rank, seq) event order.
func (h *Handle) RestoreEventSeq(rank int, seq int64) {
	h.m.obsState[rank].seq.Store(seq)
}
