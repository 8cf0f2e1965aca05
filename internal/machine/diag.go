package machine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// BlockKind classifies what a rank is doing from the deadlock monitor's
// point of view.
type BlockKind int

const (
	// BlockNone: the rank is computing (not inside a machine operation).
	BlockNone BlockKind = iota
	// BlockSend: inside Send — under a reliable transport this means
	// waiting for an acknowledgement (or for mailbox space when capped).
	BlockSend
	// BlockRecv: inside Recv, waiting for a matching message.
	BlockRecv
	// BlockBarrier: waiting for the other ranks at a barrier.
	BlockBarrier
	// BlockDone: the rank's body returned normally.
	BlockDone
	// BlockCrashed: the rank's body panicked (fault-injected crash or a
	// genuine bug).
	BlockCrashed
	// BlockHost: inside AwaitHost — a resident body waiting for the host
	// to feed it the next operation. The watchdog treats a run in which
	// every unfinished rank is host-blocked as quiescent, not deadlocked.
	BlockHost
)

func (k BlockKind) String() string {
	switch k {
	case BlockNone:
		return "computing"
	case BlockSend:
		return "send"
	case BlockRecv:
		return "recv"
	case BlockBarrier:
		return "barrier"
	case BlockDone:
		return "done"
	case BlockCrashed:
		return "crashed"
	case BlockHost:
		return "awaiting host"
	}
	return fmt.Sprintf("BlockKind(%d)", int(k))
}

// PendingEntry summarizes messages a transport has buffered (pulled from
// the wire but not yet consumed by a logical Recv) for one (from, tag).
type PendingEntry struct {
	From, Tag, Msgs, Words int
}

// RankWait describes one unfinished rank in a stalled run.
type RankWait struct {
	Rank int
	Kind BlockKind
	// Peer and Tag identify the operation the rank is blocked on: the
	// message source for BlockRecv, the destination for BlockSend.
	// Meaningless for other kinds.
	Peer, Tag int
	// InboxPackets counts raw packets sitting undrained in the rank's
	// mailbox at the time of the snapshot.
	InboxPackets int
	// Pending lists messages the rank's transport buffered while waiting
	// for something else.
	Pending []PendingEntry
}

func (w RankWait) describe() string {
	var s string
	switch w.Kind {
	case BlockSend:
		s = fmt.Sprintf("blocked in send to rank %d (tag %d)", w.Peer, w.Tag)
	case BlockRecv:
		s = fmt.Sprintf("blocked in recv from rank %d (tag %d)", w.Peer, w.Tag)
	case BlockBarrier:
		s = "blocked in barrier"
	default:
		s = w.Kind.String()
	}
	s += fmt.Sprintf("; inbox holds %d packets", w.InboxPackets)
	if len(w.Pending) > 0 {
		parts := make([]string, len(w.Pending))
		for i, p := range w.Pending {
			parts[i] = fmt.Sprintf("from %d tag %d: %d msgs/%d words", p.From, p.Tag, p.Msgs, p.Words)
		}
		s += "; buffered {" + strings.Join(parts, "; ") + "}"
	}
	return s
}

// DeadlockError is returned by the progress monitor when no rank enters
// or leaves a machine operation for a full timeout window: each
// unfinished rank is named with the operation it is blocked on and the
// messages its transport has buffered, so a stuck protocol can be read
// off the error instead of debugged from a bare "timed out".
type DeadlockError struct {
	P       int
	Timeout time.Duration
	// Crashed lists ranks whose body panicked before the stall.
	Crashed []int
	// Waits describes every rank that had not finished, in rank order.
	Waits []RankWait
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: run of %d ranks timed out after %v without progress (deadlock)", e.P, e.Timeout)
	if len(e.Crashed) > 0 {
		fmt.Fprintf(&b, "; crashed ranks %v", e.Crashed)
	}
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "\n  rank %d: %s", w.Rank, w.describe())
	}
	return b.String()
}

// CrashError is the panic value a fault injector uses to kill a rank at a
// chosen point; the runner recognizes it and reports the crash as a
// structured error instead of a generic panic.
type CrashError struct {
	// Rank is the processor that crashed; Op is the wire-operation index
	// at which the injector fired.
	Rank, Op int
}

func (e CrashError) Error() string {
	return fmt.Sprintf("machine: rank %d crashed (fault injection at wire op %d)", e.Rank, e.Op)
}

// UnreachableError is the panic value a reliable transport uses when its
// bounded retransmission budget is exhausted without an acknowledgement —
// the symptom of a crashed or indefinitely stalled peer.
type UnreachableError struct {
	Rank, Peer, Tag, Attempts int
}

func (e UnreachableError) Error() string {
	return fmt.Sprintf("machine: rank %d could not reach rank %d (tag %d) after %d transmit attempts (peer crashed or stalled?)",
		e.Rank, e.Peer, e.Tag, e.Attempts)
}

// rankDiag is one rank's monitor-visible state. The owning rank updates
// it at blocking-operation boundaries; the watchdog reads it when a run
// stalls.
//
// The block state is lock-free: the rank is its only writer, and one
// atomic word packs the kind with a transition counter (counter<<8 |
// kind), so every transition changes the word. Peer and tag are stored
// before the word that publishes them, and a reader retries until it
// sees the same word on both sides of its peer/tag reads. Overwriting
// the peer and tag of a send or receive first publishes a BlockNone
// transition, so a reader can never pair BlockSend or BlockRecv with
// another operation's peer and tag; the other kinds carry no peer or
// tag. The counter doubles as the rank's progress signal for the stall
// watchdog. rankDiag takes no lock; the pending buffer has its own.
type rankDiag struct {
	state     atomic.Uint64
	peer, tag atomic.Int64
	pending   atomic.Pointer[PendingBuffer]
	panicVal  atomic.Pointer[any]
}

// set publishes a transition to kind k. Only the owning rank calls it
// (or the host, for a rank whose goroutine is not running).
func (d *rankDiag) set(k BlockKind) {
	d.state.Store((d.state.Load()>>8+1)<<8 | uint64(k))
}

func (d *rankDiag) setBlocked(k BlockKind, peer, tag int) {
	if cur := BlockKind(d.state.Load() & 0xff); cur == BlockSend || cur == BlockRecv {
		d.set(BlockNone) // move the word before its peer and tag change
	}
	d.peer.Store(int64(peer))
	d.tag.Store(int64(tag))
	d.set(k)
}

// parkForHost transitions to BlockHost (Comm.AwaitHost).
func (d *rankDiag) parkForHost() { d.setBlocked(BlockHost, -1, -1) }

func (d *rankDiag) setRunning() { d.set(BlockNone) }

func (d *rankDiag) setDone() { d.set(BlockDone) }

func (d *rankDiag) setPanic(v any) {
	d.panicVal.Store(&v)
	d.set(BlockCrashed)
}

func (d *rankDiag) panicValue() any {
	if v := d.panicVal.Load(); v != nil {
		return *v
	}
	return nil
}

// progress returns the rank's transition counter: it moves whenever the
// rank enters or leaves a machine operation.
func (d *rankDiag) progress() uint64 { return d.state.Load() >> 8 }

// block reads a consistent (kind, peer, tag) triple.
func (d *rankDiag) block() (BlockKind, int, int) {
	for {
		s := d.state.Load()
		peer, tag := d.peer.Load(), d.tag.Load()
		if d.state.Load() == s {
			return BlockKind(s & 0xff), int(peer), int(tag)
		}
	}
}
