package parallel

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// ErrSessionBusy is returned by Session operations invoked while another
// operation is still in flight. A Session is a single-host-goroutine
// engine; the guard turns concurrent misuse into a structured error
// instead of a data race on the staging buffers.
var ErrSessionBusy = errors.New("parallel: session operation already in flight")

// maxRelaunches bounds the relaunches one operation may consume before
// its error is returned: three retries plus a final relaunch.
const maxRelaunches = 4

// RecoveryStats counts the supervisor's interventions over a session's
// lifetime. Logical meters are unaffected by any of them — recovery work
// shows only on the wire meters and in these counters.
type RecoveryStats struct {
	// RankDowns counts rank deaths observed (one crash hitting three
	// ranks counts three).
	RankDowns int
	// Rollbacks counts checkpoint restorations.
	Rollbacks int
	// Relaunches counts machine relaunches — one per recovery incident.
	Relaunches int
	// Epoch is the machine's wire epoch: the number of relaunches so far
	// (plus Options.Machine.StartEpoch).
	Epoch int64
	// Verifications counts fingerprint verification passes over restored
	// chunk arenas — one per rollback.
	Verifications int
	// Mismatches counts restores whose fingerprint verification failed
	// (each surfaced a RestoreMismatchError instead of replaying).
	Mismatches int
	// CheckpointWords counts dirty words the incremental checkpointer
	// copied over the session lifetime. Apply-style operations contribute
	// zero; power-method iterations contribute their owned spans.
	CheckpointWords int64
	// CheckpointNanos and RestoreNanos accumulate wall time spent in the
	// checkpoint capture and the rollback-restore paths.
	CheckpointNanos int64
	RestoreNanos    int64
}

// RecoveryStats reports the supervisor counters so far. Call between
// operations (or after Close).
func (s *Session) RecoveryStats() RecoveryStats {
	st := s.stats
	st.Epoch = s.cur.h.Epoch()
	return st
}

// launch is one incarnation of the resident machine. A fail-fast session
// has exactly one; a recovering session replaces it wholesale on every
// recovery.
type launch struct {
	h       *machine.Handle
	ops     []chan *sessionOp
	runDone chan struct{}
	report  *machine.Report
	runErr  error
}

// launchMachine starts a machine incarnation in the given epoch and
// installs it as s.cur. For recovering sessions the config gains the
// OnRankDown hook that feeds each dying rank's error to s.crashCh (which
// also flips the machine into supervised mode: a crashed rank no longer
// poisons host-quiescence detection).
func (s *Session) launchMachine(epoch int64) error {
	ops := make([]chan *sessionOp, s.part.P)
	for r := range ops {
		ops[r] = make(chan *sessionOp, 1)
	}
	l := &launch{ops: ops, runDone: make(chan struct{})}
	cfg := s.opts.Machine
	cfg.StartEpoch = epoch
	if s.opts.Recovery {
		cfg.OnRankDown = func(_ int, err error) {
			select {
			case s.crashCh <- err:
			default: // the supervisor reads CrashedRanks anyway; never block a dying rank
			}
		}
	}
	h, err := machine.StartWith(s.part.P, cfg, rankBody(ops))
	if err != nil {
		return err
	}
	l.h = h
	go func() {
		l.report, l.runErr = h.Wait()
		close(l.runDone)
	}()
	s.cur = l
	return nil
}

// rankBody is the resident body every simulated rank of one launch runs:
// serve host-fed operations until the rank's op channel closes. The
// ranks hold their own copy of the channel slice, so the host may drop
// the launch's. An abort means
// the incarnation is being retired, so the rank unwinds out of its
// operation and returns without completing it; the host replays the
// operation on the next incarnation. Any other panic (an injected
// CrashError, a genuine bug) propagates and kills the rank.
func rankBody(ops []chan *sessionOp) func(c *machine.Comm) {
	return func(c *machine.Comm) {
		defer func() {
			if r := recover(); r != nil && !machine.IsAbort(r) {
				panic(r)
			}
		}()
		me := c.Rank()
		for {
			var op *sessionOp
			c.AwaitHost(func() { op = <-ops[me] })
			if op == nil {
				return
			}
			op.run(me, c)
			if op.pending.Add(-1) == 0 {
				close(op.done)
			}
		}
	}
}

// dispatch hands one operation to every rank and waits for completion.
// A fail-fast session makes one attempt, and any machine death is the
// operation's error. A recovering session checkpoints first, and on a
// rank death or a machine death relaunches the machine in the next
// epoch, rolls every rank back to the checkpoint and replays — at most
// maxRelaunches times. pr may be nil for operations without phase meters;
// dk declares which checkpointed state the operation mutates, bounding
// what the checkpointer copies.
func (s *Session) dispatch(pr *phaseRecorder, dk dirtyKind, run func(me int, c *machine.Comm)) error {
	if !s.opts.Recovery {
		return s.tryOnce(run)
	}
	ck := s.checkpoint(pr, dk)
	for relaunches := 0; ; relaunches++ {
		var err error
		if dead := s.cur.h.CrashedRanks(); len(dead) > 0 {
			// A rank died while parked (its transport services peers'
			// retransmissions there, and a crash can fire on that path):
			// relaunch before feeding it an operation it can never run.
			err = fmt.Errorf("parallel: ranks %v died between operations", dead)
		} else if err = s.tryOnce(run); err == nil {
			return nil
		}
		if relaunches == maxRelaunches {
			// Retire the machine: its survivors unwind now rather than
			// at the watchdog, and the next operation relaunches.
			s.cur.h.Abort()
			return err
		}
		if err := s.relaunch(ck, relaunches+1); err != nil {
			return err
		}
		if err := s.restore(ck, pr); err != nil {
			return err
		}
	}
}

// tryOnce feeds one op to every rank and waits for completion, a crash
// notification (recovering sessions only; crashCh is nil otherwise), or
// machine death.
func (s *Session) tryOnce(run func(me int, c *machine.Comm)) error {
	l := s.cur
	op := &sessionOp{run: run, done: make(chan struct{})}
	op.pending.Store(int64(s.part.P))
	for r := range l.ops {
		select {
		case l.ops[r] <- op:
		case <-l.runDone:
			return s.sessionErr()
		}
	}
	select {
	case <-op.done:
		return nil
	case <-l.runDone:
		return s.sessionErr()
	case err := <-s.crashCh:
		return err
	}
}

func (s *Session) sessionErr() error {
	if err := s.cur.runErr; err != nil {
		return err
	}
	return fmt.Errorf("parallel: session machine exited")
}

// relaunch retires the current machine incarnation and launches a fresh
// one in the next epoch — the same way a cluster rank process comes back
// (cluster.RunRank). The old machine is aborted, its op channels close,
// and every one of its rank goroutines exits before anything else
// happens, so no operation outlives its incarnation and nothing of it
// touches the rank state the restore is about to roll back. The fresh
// machine carries the meters forward: logical counters resume from the
// checkpoint (committed work only), wire counters and event sequence
// numbers from the old machine's cumulative totals (recovery traffic
// stays visible, and the trace keeps its canonical (rank, seq) order).
// Its epoch fences whatever the old incarnation left in a shared backend.
func (s *Session) relaunch(ck *ckSlot, attempt int) error {
	old := s.cur
	old.h.Abort()
	for _, ch := range old.ops {
		close(ch)
	}
	old.ops = nil // a failed launch below leaves old installed: never send to or close these again
	<-old.h.Exited()
	dead := old.h.CrashedRanks() // every death of the incarnation, unwinding included
	for len(s.crashCh) > 0 {
		<-s.crashCh
	}

	carried := make([]machine.Meters, s.part.P)
	seqs := make([]int64, s.part.P)
	for r := range carried {
		mt := ck.meters[r]
		wm := old.h.RankMeters(r)
		mt.WireSentWords, mt.WireRecvWords = wm.WireSentWords, wm.WireRecvWords
		mt.WireSentMsgs, mt.WireRecvMsgs = wm.WireSentMsgs, wm.WireRecvMsgs
		carried[r] = mt
		seqs[r] = old.h.RankEventSeq(r)
	}
	if err := s.launchMachine(old.h.Epoch() + 1); err != nil {
		return err
	}
	for r, mt := range carried {
		s.cur.h.RestoreMeters(r, mt, true)
		s.cur.h.RestoreEventSeq(r, seqs[r])
	}
	s.stats.Relaunches++
	s.stats.RankDowns += len(dead)
	for _, r := range dead {
		s.cur.h.Emit(r, machine.Event{Kind: machine.EventRankDown, From: r, To: r, Step: -1})
	}
	s.cur.h.Emit(0, machine.Event{Kind: machine.EventRecoveryBegin, From: 0, To: 0, Step: attempt})
	return nil
}

// The checkpoint store itself — incremental capture, shadow mirrors, page
// fingerprints, and verified restore — lives in checkpoint.go.
