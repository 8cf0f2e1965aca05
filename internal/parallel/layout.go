package parallel

import (
	"fmt"

	"repro/internal/intmath"
	"repro/internal/partition"
	"repro/internal/schedule"
)

// This file precomputes the steady-state exchange layout a Session rank
// runs on: which arena words each schedule step moves, in which order, and
// how many. Everything the seed Run derived per message inside the hot
// loop — sharedRowsOf scans, OwnedRange lookups, append-grown payloads —
// is resolved here once at session open, so the per-application path is
// pure copy/add over precomputed segments.

// segment addresses one row-block chunk inside a rank's arena: local row
// index k (position in the rank's owned-row list) and the chunk bounds
// within the b-long block. Pack and unpack iterate segments in the exact
// order the seed code iterated (row, then range), so payload bytes are
// bit-identical.
type segment struct {
	k      int
	lo, hi int
}

func (s segment) words() int { return s.hi - s.lo }

// sessStep is one rank's role in one exchange step, with segment lists
// for both phases: the gather phase sends the rank's own chunks (gSend)
// and copies in the peer's chunks (gRecv); the reduce-scatter phase sends
// the peer's chunks of the partial results (sSend) and adds received
// partials into the rank's own chunks (sRecv).
type sessStep struct {
	sendTo   int // -1 when idle
	recvFrom int // -1 when idle
	gSend    []segment
	gRecv    []segment
	sSend    []segment
	sRecv    []segment
	// words per column of each message: the exact payload under the
	// point-to-point wiring, the fixed width (payload plus zero fill)
	// under the All-to-All wiring
	gSendW, gRecvW, sSendW, sRecvW int
}

// rankLayout is one rank's full precomputed layout.
type rankLayout struct {
	rows   []int // owned row blocks, partition order
	rowIdx []int // global row block -> local k, -1 when unowned
	myLo   []int // owned chunk bounds per local row
	myHi   []int
	steps  []sessStep
	// maxMsgW is the largest single-message word count per column this
	// rank sends or receives — the step-buffer size.
	maxMsgW int
}

// sessionLayout is the whole machine's layout.
type sessionLayout struct {
	perRank []rankLayout
	steps   int // communication steps per exchange phase
}

// buildLayout validates the partition and block edge of opts, builds the
// point-to-point schedule when the wiring needs one and none was supplied,
// and precomputes every rank's layout. The shared rows of each pair are
// derived in one O(P·q²) pass over the partition (each row names its q+1
// sharers) instead of the O(P²·q) pairwise scans of the seed.
func buildLayout(opts *Options) (*sessionLayout, error) {
	part, b := opts.Part, opts.B
	if part == nil {
		return nil, fmt.Errorf("parallel: nil partition")
	}
	if b < 1 {
		return nil, fmt.Errorf("parallel: block edge %d", b)
	}
	L := &sessionLayout{perRank: make([]rankLayout, part.P)}
	for p := 0; p < part.P; p++ {
		rk := &L.perRank[p]
		rk.rows = part.Rp[p]
		rk.rowIdx = make([]int, part.M)
		for i := range rk.rowIdx {
			rk.rowIdx[i] = -1
		}
		rk.myLo = make([]int, len(rk.rows))
		rk.myHi = make([]int, len(rk.rows))
		for k, row := range rk.rows {
			rk.rowIdx[row] = k
			lo, hi, ok := part.OwnedRange(p, row, b)
			if !ok {
				return nil, fmt.Errorf("parallel: rank %d has no chunk of its row %d", p, row)
			}
			rk.myLo[k], rk.myHi[k] = lo, hi
		}
	}
	switch opts.Wiring {
	case WiringP2P:
		sched := opts.Sched
		if sched == nil {
			var err error
			if sched, err = schedule.Build(part); err != nil {
				return nil, err
			}
		}
		if err := buildP2PLayout(L, part, sched, b); err != nil {
			return nil, err
		}
	case WiringAllToAll:
		if err := buildA2ALayout(L, part, b); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("parallel: unknown wiring %v", opts.Wiring)
	}
	return L, nil
}

// segsFor builds the segment list for rows with chunk bounds taken from
// owner's ranges, using owner's local row indexing from lay.
func segsFor(part *partition.Tetrahedral, lay *rankLayout, owner int, rows []int, b int) ([]segment, int, error) {
	segs := make([]segment, len(rows))
	words := 0
	for si, row := range rows {
		k := lay.rowIdx[row]
		if k < 0 {
			return nil, 0, fmt.Errorf("parallel: schedule names row %d a rank does not own", row)
		}
		lo, hi, ok := part.OwnedRange(owner, row, b)
		if !ok {
			return nil, 0, fmt.Errorf("parallel: rank %d owns no chunk of row %d", owner, row)
		}
		segs[si] = segment{k: k, lo: lo, hi: hi}
		words += hi - lo
	}
	return segs, words, nil
}

// buildP2PLayout turns each schedule transfer into the sender's and the
// receiver's roles in its step.
func buildP2PLayout(L *sessionLayout, part *partition.Tetrahedral, sched *schedule.Schedule, b int) error {
	L.steps = sched.NumSteps()
	for p := range L.perRank {
		rk := &L.perRank[p]
		rk.steps = make([]sessStep, L.steps)
		for si := range rk.steps {
			rk.steps[si].sendTo, rk.steps[si].recvFrom = -1, -1
		}
	}
	for si, step := range sched.Steps {
		for _, tr := range step {
			from, to := &L.perRank[tr.From], &L.perRank[tr.To]
			snd, rcv := &from.steps[si], &to.steps[si]
			snd.sendTo, rcv.recvFrom = tr.To, tr.From
			var err error
			// Gather sends the sender's chunks; scatter sends the
			// receiver's.
			if snd.gSend, snd.gSendW, err = segsFor(part, from, tr.From, tr.Rows, b); err != nil {
				return err
			}
			if snd.sSend, snd.sSendW, err = segsFor(part, from, tr.To, tr.Rows, b); err != nil {
				return err
			}
			// Gather receives the sender's chunks; scatter receives
			// partials for the receiver's own chunks.
			if rcv.gRecv, rcv.gRecvW, err = segsFor(part, to, tr.From, tr.Rows, b); err != nil {
				return err
			}
			if rcv.sRecv, rcv.sRecvW, err = segsFor(part, to, tr.To, tr.Rows, b); err != nil {
				return err
			}
		}
	}
	for p := range L.perRank {
		rk := &L.perRank[p]
		for _, st := range rk.steps {
			rk.maxMsgW = max(rk.maxMsgW, st.gSendW, st.gRecvW, st.sSendW, st.sRecvW)
		}
	}
	return nil
}

// buildA2ALayout realizes the All-to-All wiring as the pairwise-exchange
// schedule of Thakur et al.: in step r of P−1, every rank sends to the rank
// r ahead and receives from the rank r behind. Each message carries the
// pair's shared rows (possibly none) zero-filled to the fixed width of
// 2·maxChunk words per column that §7.2 charges; a partition whose shared
// rows overflow that width is rejected.
func buildA2ALayout(L *sessionLayout, part *partition.Tetrahedral, b int) error {
	maxChunk := 0
	for i := 0; i < part.M; i++ {
		maxChunk = max(maxChunk, intmath.CeilDiv(b, len(part.Qi[i])))
	}
	width, P := 2*maxChunk, part.P
	L.steps = P - 1
	// shared[p][peer] lists R_p ∩ R_peer in R_p order — one pass over each
	// rank's rows and their sharer lists.
	shared := make([][][]int, P)
	for p := range shared {
		shared[p] = make([][]int, P)
	}
	for p := 0; p < P; p++ {
		for _, row := range part.Rp[p] {
			for _, peer := range part.Qi[row] {
				if peer != p {
					shared[p][peer] = append(shared[p][peer], row)
				}
			}
		}
	}
	for p := 0; p < P; p++ {
		rk := &L.perRank[p]
		rk.steps = make([]sessStep, L.steps)
		rk.maxMsgW = width
		for si := range rk.steps {
			st := &rk.steps[si]
			st.sendTo, st.recvFrom = (p+si+1)%P, (p-si-1+P)%P
			st.gSendW, st.gRecvW, st.sSendW, st.sRecvW = width, width, width, width
			// Both owners hold every shared row, so segsFor cannot fail.
			var myW, peerW int
			st.gSend, myW, _ = segsFor(part, rk, p, shared[p][st.sendTo], b)
			st.sSend, peerW, _ = segsFor(part, rk, st.sendTo, shared[p][st.sendTo], b)
			if myW > width || peerW > width {
				return fmt.Errorf("parallel: rank %d shares %d+%d words with rank %d, exceeding All-to-All width %d",
					p, myW, peerW, st.sendTo, width)
			}
			st.gRecv, _, _ = segsFor(part, rk, st.recvFrom, shared[p][st.recvFrom], b)
			st.sRecv, _, _ = segsFor(part, rk, p, shared[p][st.recvFrom], b)
		}
	}
	return nil
}
