package parallel

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/la"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// Session is a resident parallel STTSV engine: it launches the P simulated
// ranks once against a fixed (tensor, partition, schedule, B, wiring) and
// serves a stream of operations — Apply, ApplyBatch, PowerMethod, MTTKRP —
// until Close. Between operations the ranks park on a host-fed op queue
// (Comm.AwaitHost), so the machine, its transports, the packed tensor
// blocks, and every pack/unpack buffer survive from one application to the
// next. After one warm-up application the per-rank exchange path (pack
// and Send every step, one Barrier, RecvInto and unpack every step)
// performs no allocations.
//
// Results are bit-identical to the one-shot Run/RunPowerMethod/RunMTTKRP
// (which are implemented on top of Session), and each operation's Result
// carries exactly the meters a fresh run would: per-rank counter snapshots
// are taken at the op boundaries and differenced.
//
// A Session is not safe for concurrent use: operations are dispatched one
// at a time by a single host goroutine.
type Session struct {
	opts   Options
	part   *partition.Tetrahedral
	b      int
	padded int
	n      int // logical operator dimension; 0 when unknown (nil tensor)

	op  localOperator // per-rank step (dense, sparse or CP)
	lay *sessionLayout

	maxCols int
	rk      []*sessionRank
	stageX  [][]float64 // host staging, maxCols × padded
	stageY  [][]float64

	cur      *launch    // current machine incarnation
	crashCh  chan error // rank deaths; nil on fail-fast sessions
	stats    RecoveryStats
	inflight atomic.Bool
	report   *machine.Report
	closed   bool
	closeErr error

	// ck is the incremental checkpoint store (nil on fail-fast sessions).
	ck *ckStore
}

// sessionOp is one host-dispatched operation: every rank runs the closure,
// and the last one to finish releases the host.
type sessionOp struct {
	run     func(me int, c *machine.Comm)
	pending atomic.Int64
	done    chan struct{}
}

// sessionRank is one rank's resident state: dense arenas replacing the
// seed's per-run map[int][]float64 row blocks, and reusable exact-size
// message buffers. Arena layout: owned row k, column l occupies
// [k·maxCols·b + l·b, …+b).
type sessionRank struct {
	lay     *rankLayout
	b       int
	maxCols int

	xA    []float64 // input row-block arena
	yA    []float64 // output row-block arena
	chunk []float64 // owned-chunk iterate (power method), k·b-indexed

	// pmLambda and pmPrev are the power method's convergence scalars;
	// they live here (not in an op closure) because the method dispatches
	// one operation per iteration and the state must survive between
	// dispatches — and be checkpointable for crash recovery.
	pmLambda float64
	pmPrev   float64

	sendBuf []float64 // one message, reused across steps (Send copies)
	recvBuf []float64

	scratch *sttsv.Scratch
	world   *collective.Group
	pbuf    [2]float64
}

func (rk *sessionRank) stride() int { return rk.maxCols * rk.b }

// OpenSession validates the configuration, precomputes the steady-state
// layout, and launches the resident ranks. The tensor may be nil (zero
// blocks — pure communication measurement). Options.MaxCols presizes the
// arenas for batched operations; ApplyBatch grows them on demand.
func OpenSession(a *tensor.Symmetric, opts Options) (*Session, error) {
	lay, err := buildLayout(&opts)
	if err != nil {
		return nil, err
	}
	part, b := opts.Part, opts.B
	var contribute func(me int, rk *sessionRank, cols int) int64
	n := 0
	if srb := opts.Sparse; srb != nil {
		if a != nil {
			return nil, fmt.Errorf("parallel: sparse session takes no dense tensor")
		}
		if opts.Blocks != nil {
			return nil, fmt.Errorf("parallel: Options.Blocks and Options.Sparse are mutually exclusive")
		}
		srb, err := sparseBlocksFor(srb, part, b)
		if err != nil {
			return nil, err
		}
		contribute = sparseContribute(srb)
		n = srb.N
	} else {
		if a != nil {
			if a.N > part.M*b {
				return nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d (m=%d, b=%d)", a.N, part.M*b, part.M, b)
			}
			n = a.N
		}
		blocks, err := rankBlocksFor(&opts, a, part, b)
		if err != nil {
			return nil, err
		}
		contribute = denseContribute(opts.executor(), blocks)
	}
	s := &Session{
		opts:   opts,
		part:   part,
		b:      b,
		padded: part.M * b,
		n:      n,
		op:     &exchangeOp{contribute: contribute},
		lay:    lay,
	}
	return s.start()
}

// start is the ending every session shares once its operator and layout
// are built: size the arenas, arm crash recovery when requested, and
// launch the resident ranks.
func (s *Session) start() (*Session, error) {
	s.grow(max(s.opts.MaxCols, 1))
	if s.opts.Recovery {
		s.crashCh = make(chan error, s.part.P)
		if s.opts.Machine.Timeout == 0 {
			// A stall no rank death explains would hang the dispatch; the
			// watchdog turns it into a machine death the supervisor
			// relaunches, so a recovering session always runs with one.
			s.opts.Machine.Timeout = 5 * time.Second
		}
		s.ck = newCkStore(s.rk)
	}
	if err := s.launchMachine(s.opts.Machine.StartEpoch); err != nil {
		return nil, err
	}
	return s, nil
}

// grow (re)allocates arenas and message buffers for maxCols columns. Only
// called while no operation is in flight; the op-channel handoff publishes
// the new buffers to the rank goroutines.
func (s *Session) grow(maxCols int) {
	s.maxCols = maxCols
	if s.rk == nil {
		s.rk = make([]*sessionRank, s.part.P)
		for p := range s.rk {
			s.rk[p] = &sessionRank{lay: &s.lay.perRank[p], b: s.b, scratch: sttsv.NewScratch()}
		}
	}
	for _, rk := range s.rk {
		rk.grow(maxCols)
	}
	s.stageX = make([][]float64, maxCols)
	s.stageY = make([][]float64, maxCols)
	for l := 0; l < maxCols; l++ {
		s.stageX[l] = make([]float64, s.padded)
		s.stageY[l] = make([]float64, s.padded)
	}
	if s.ck != nil {
		// The chunk arenas above were reallocated (and zeroed); the shadow
		// mirrors and their fingerprints must follow.
		s.ck.resync(s.rk)
	}
}

// grow (re)allocates the rank's arenas and message buffers for maxCols
// columns.
func (rk *sessionRank) grow(maxCols int) {
	rk.maxCols = maxCols
	rows := len(rk.lay.rows)
	rk.xA = make([]float64, rows*maxCols*rk.b)
	rk.yA = make([]float64, rows*maxCols*rk.b)
	rk.chunk = make([]float64, rows*rk.b)
	if rk.lay.maxMsgW > 0 {
		rk.sendBuf = make([]float64, rk.lay.maxMsgW*maxCols)
		rk.recvBuf = make([]float64, rk.lay.maxMsgW*maxCols)
	}
}

func (s *Session) ensureCols(cols int) {
	if cols > s.maxCols {
		s.grow(cols)
	}
}

// Close retires the resident ranks and waits for the machine to finish.
// Safe to call more than once.
func (s *Session) Close() error {
	if s.closed {
		return s.closeErr
	}
	s.closed = true
	l := s.cur
	for r := range l.ops {
		close(l.ops[r])
	}
	<-l.runDone
	s.report = l.report
	s.closeErr = l.runErr
	return s.closeErr
}

// Report returns the whole-session machine report (all operations summed).
// Only valid after Close.
func (s *Session) Report() *machine.Report { return s.report }

// ---------------------------------------------------------------------------
// Steady-state pack/unpack/exchange path. After warm-up, nothing here
// allocates: pack and unpack are copies over precomputed segments, Send
// draws its payload copy from the machine's pool, and RecvInto returns it.

// pack copies the segments' chunks (per row, then per column — the seed's
// payload order) from the arena into buf, returning the payload length.
// A chunk is a few words, so pack and unpackCopy move them with a plain
// loop rather than a copy call per chunk.
func (rk *sessionRank) pack(buf, arena []float64, segs []segment, cols int) int {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		n := sg.hi - sg.lo
		src := arena[sg.k*stride+sg.lo:]
		for l := 0; l < cols; l++ {
			for t, v := range src[l*b : l*b+n] {
				buf[pos+t] = v
			}
			pos += n
		}
	}
	return pos
}

// unpackCopy writes a received payload into the arena segments (gather).
func (rk *sessionRank) unpackCopy(payload, arena []float64, segs []segment, cols int) {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		n := sg.hi - sg.lo
		dst := arena[sg.k*stride+sg.lo:]
		for l := 0; l < cols; l++ {
			for t, v := range payload[pos : pos+n] {
				dst[l*b+t] = v
			}
			pos += n
		}
	}
}

// unpackAdd accumulates a received payload into the arena segments
// (reduce-scatter), in the seed's ascending-index order.
func (rk *sessionRank) unpackAdd(payload, arena []float64, segs []segment, cols int) {
	b, stride := rk.b, rk.stride()
	pos := 0
	for _, sg := range segs {
		base := sg.k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			for t := sg.lo; t < sg.hi; t++ {
				arena[o+t] += payload[pos]
				pos++
			}
		}
	}
}

// exchange runs one of the step's two vector exchanges over the layout's
// steps: gather copies the peers' chunks of the owned x rows in;
// reduce-scatter adds the peers' partials into the owned y chunks. Both
// wirings run through it: the point-to-point schedule sends exact
// payloads, the All-to-All's pairwise steps zero-fill every message to the
// fixed width.
//
// A phase is one BSP superstep: post every step's send in step order,
// cross one barrier, then drain the receives in step order. That is
// sound because no step forwards data another step delivers — a gather
// send carries the rank's own chunks, a reduce-scatter send the partials
// the local phase left, and neither is written by a receive — so every
// payload is final before the phase begins. The reduce-scatter still adds
// peer partials in step order, so the Y bits are those of a run that
// synchronizes every step. The §7.2 step survives as a property of each
// message: BeginStep stamps it on the Send and Recv events, and the trace
// counts and replays steps from the stamps.
func (rk *sessionRank) exchange(c *machine.Comm, cols int, gather bool) {
	arena, tag := rk.xA, 100
	if !gather {
		arena, tag = rk.yA, 200
	}
	steps := rk.lay.steps
	for si := range steps {
		st := &steps[si]
		if st.sendTo < 0 {
			continue
		}
		segs, w := st.gSend, st.gSendW*cols
		if !gather {
			segs, w = st.sSend, st.sSendW*cols
		}
		n := rk.pack(rk.sendBuf, arena, segs, cols)
		clear(rk.sendBuf[n:w]) // All-to-All padding; empty under P2P
		c.BeginStep(si)
		c.Send(st.sendTo, tag+si, rk.sendBuf[:w])
	}
	c.Barrier()
	for si := range steps {
		st := &steps[si]
		if st.recvFrom < 0 {
			continue
		}
		w := st.gRecvW * cols
		if !gather {
			w = st.sRecvW * cols
		}
		c.BeginStep(si)
		c.RecvInto(st.recvFrom, tag+si, rk.recvBuf[:w])
		if gather {
			rk.unpackCopy(rk.recvBuf[:w], arena, st.gRecv, cols)
		} else {
			rk.unpackAdd(rk.recvBuf[:w], arena, st.sRecv, cols)
		}
	}
}

// stage copies the host-staged input columns' owned chunks into the x
// arena. The gather phase overwrites every other chunk of every owned row
// (schedule completeness), so no clearing is needed.
func (rk *sessionRank) stage(stageX [][]float64, cols int) {
	b, stride := rk.b, rk.stride()
	for k, row := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		base := k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(rk.xA[o+lo:o+hi], stageX[l][row*b+lo:row*b+hi])
		}
	}
}

// publish writes the owned output chunks into the host's staging columns.
// Chunk ownership is a partition of every row block, so each word has
// exactly one writer.
func (rk *sessionRank) publish(stageY [][]float64, cols int) {
	b, stride := rk.b, rk.stride()
	for k, row := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		base := k * stride
		for l := 0; l < cols; l++ {
			o := base + l*b
			copy(stageY[l][row*b+lo:row*b+hi], rk.yA[o+lo:o+hi])
		}
	}
}

func (rk *sessionRank) zeroY() { clear(rk.yA) }

// xRow and yRow return row block i of every column (column l at words
// [l·b, (l+1)·b)); xRowCol and yRowCol return one column's row block.
func (rk *sessionRank) xRow(i int) []float64 {
	base := rk.lay.rowIdx[i] * rk.stride()
	return rk.xA[base : base+rk.stride()]
}

func (rk *sessionRank) yRow(i int) []float64 {
	base := rk.lay.rowIdx[i] * rk.stride()
	return rk.yA[base : base+rk.stride()]
}

func (rk *sessionRank) xRowCol(i, l int) []float64 {
	base := rk.lay.rowIdx[i]*rk.stride() + l*rk.b
	return rk.xA[base : base+rk.b]
}

func (rk *sessionRank) yRowCol(i, l int) []float64 {
	base := rk.lay.rowIdx[i]*rk.stride() + l*rk.b
	return rk.yA[base : base+rk.b]
}

// ---------------------------------------------------------------------------
// Operations.

// bind points the rank's collective group at this incarnation's Comm: a
// RankEngine survives machine restarts, and a group bound to a dead
// epoch's machine would panic with that machine's abort sentinel.
func (rk *sessionRank) bind(c *machine.Comm) {
	if rk.world == nil || rk.world.Comm() != c {
		rk.world = collective.World(c)
	}
}

// applyOp is the rank closure of one (possibly batched) application:
// stage the input columns' owned chunks, run the operator's step, publish
// the owned output chunks.
func (s *Session) applyOp(cols int, pr *phaseRecorder, deltas []machine.Meters) func(me int, c *machine.Comm) {
	return func(me int, c *machine.Comm) {
		rk := s.rk[me]
		m0 := c.Meters()
		rk.bind(c)
		rk.stage(s.stageX, cols)
		s.op.step(me, rk, c, pr, cols)
		rk.publish(s.stageY, cols)
		deltas[me] = c.Meters().Sub(m0)
	}
}

// applyCols stages the input columns, dispatches one application, and
// leaves the padded outputs in s.stageY. Column l of the output is
// bit-identical to a single-column application of X[l].
func (s *Session) applyCols(X [][]float64) ([]machine.Meters, *phaseRecorder, error) {
	if s.closed {
		return nil, nil, fmt.Errorf("parallel: session closed")
	}
	cols := len(X)
	if cols < 1 {
		return nil, nil, fmt.Errorf("parallel: empty batch")
	}
	// Every column is validated before the dispatch (and before the
	// in-flight guard is taken): a malformed batch must surface as a clean
	// error with the session untouched and immediately reusable, never as
	// a host-op handed to the ranks with inconsistent staging.
	for l, x := range X {
		if len(x) == 0 {
			return nil, nil, fmt.Errorf("parallel: batch column %d is empty", l)
		}
		if len(x) != len(X[0]) {
			return nil, nil, fmt.Errorf("parallel: ragged batch: column %d has %d elements, column 0 has %d", l, len(x), len(X[0]))
		}
		if len(x) > s.padded {
			return nil, nil, fmt.Errorf("parallel: n=%d exceeds padded dimension %d (m=%d, b=%d)", len(x), s.padded, s.part.M, s.b)
		}
		if s.n > 0 && s.n != len(x) {
			return nil, nil, fmt.Errorf("parallel: operator dimension %d, vector length %d", s.n, len(x))
		}
	}
	if !s.inflight.CompareAndSwap(false, true) {
		return nil, nil, ErrSessionBusy
	}
	defer s.inflight.Store(false)
	s.ensureCols(cols)
	for l, x := range X {
		copy(s.stageX[l], x)
		clear(s.stageX[l][len(x):])
	}
	deltas := make([]machine.Meters, s.part.P)
	pr := newPhaseRecorder(s.part.P, s.op.phases()...)
	if err := s.dispatch(pr, dirtyNone, s.applyOp(cols, pr, deltas)); err != nil {
		return nil, nil, err
	}
	pr.setSteps(s.lay.steps)
	return deltas, pr, nil
}

// Apply computes y = A ×₂ x ×₃ x on the resident machine. The result (Y
// bits, per-phase meters, report) is exactly what a fresh Run would
// produce.
func (s *Session) Apply(x []float64) (*Result, error) {
	deltas, pr, err := s.applyCols([][]float64{x})
	if err != nil {
		return nil, err
	}
	return &Result{
		Y:       append([]float64(nil), s.stageY[0][:len(x)]...),
		Report:  reportFromDeltas(deltas),
		Phases:  pr.results(),
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}, nil
}

// BatchResult reports one multi-column application.
type BatchResult struct {
	// Y holds one output column per input column, each len(X[l]).
	Y [][]float64
	// Report, Phases, Ternary, Steps are as in Result, for the whole
	// batch: per-column words match cols independent applications, while
	// the message count stays that of a single one (messages ÷ cols).
	Report  *machine.Report
	Phases  []PhaseMeter
	Ternary []int64
	Steps   int
}

// PhaseShare is one column's amortized slice of a batch's PhaseMeter,
// summed over ranks: the communication bill a single tenant foots when its
// request rides a coalesced ApplyBatch. Words and ternary multiplications
// scale exactly linearly with the column count, so the per-column word and
// compute shares are exact integers; messages are paid once per schedule
// step for the whole batch, so the per-column message share is the
// fractional 1/cols split that makes batching worth coalescing for.
type PhaseShare struct {
	Label     string
	SentWords int64   // this column's sent words, summed over ranks (exact)
	RecvWords int64   // this column's received words, summed over ranks (exact)
	SentMsgs  float64 // amortized messages: batch total ÷ columns
	RecvMsgs  float64
	Ternary   int64 // this column's ternary multiplications (exact)
	Steps     int
}

// Shares splits the batch's phase meters into one per-column share. Every
// column's share is identical — the batch carries all columns through the
// same schedule steps — so the slice indexes phases, not columns.
func (br *BatchResult) Shares() []PhaseShare {
	cols := int64(len(br.Y))
	if cols == 0 {
		return nil
	}
	out := make([]PhaseShare, len(br.Phases))
	for i := range br.Phases {
		m := &br.Phases[i]
		sh := PhaseShare{Label: m.Label, Steps: m.Steps}
		var sw, rw, sm, rm, tern int64
		for r := range m.SentWords {
			sw += m.SentWords[r]
			rw += m.RecvWords[r]
			sm += m.SentMsgs[r]
			rm += m.RecvMsgs[r]
			tern += m.Ternary[r]
		}
		sh.SentWords = sw / cols
		sh.RecvWords = rw / cols
		sh.SentMsgs = float64(sm) / float64(cols)
		sh.RecvMsgs = float64(rm) / float64(cols)
		sh.Ternary = tern / cols
		out[i] = sh
	}
	return out
}

// ApplyBatch computes y_l = A ×₂ x_l ×₃ x_l for every column at once: one
// message per schedule step carrying all columns, amortizing the α (per-
// message) cost cols-fold. Output column l is bit-identical to Apply(X[l]).
func (s *Session) ApplyBatch(X [][]float64) (*BatchResult, error) {
	deltas, pr, err := s.applyCols(X)
	if err != nil {
		return nil, err
	}
	ys := make([][]float64, len(X))
	for l, x := range X {
		ys[l] = append([]float64(nil), s.stageY[l][:len(x)]...)
	}
	return &BatchResult{
		Y:       ys,
		Report:  reportFromDeltas(deltas),
		Phases:  pr.results(),
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}, nil
}

// powerIterState carries one iteration's per-rank outcome flags from the
// dispatched op back to the host loop. Every rank writes only its own
// slot; the slots agree across ranks because the convergence test runs on
// the all-reduced scalars.
type powerIterState struct {
	stop      []bool
	converged []bool
	singular  []bool
}

// powerStep runs one power-method iteration on this rank: stage the owned
// iterate chunks, run the operator's step, then powerAdvance. It is the
// one iteration body of every Session (dense, sparse or CP) and of the
// distributed RankEngine, so a rank process on real sockets executes
// bit-for-bit the arithmetic of the simulated run.
func (rk *sessionRank) powerStep(op localOperator, me int, c *machine.Comm, pr *phaseRecorder, tol float64) (stop, converged, singular bool) {
	rk.bind(c)
	b, stride := rk.b, rk.stride()
	for k := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		copy(rk.xA[k*stride+lo:k*stride+hi], rk.chunk[k*b+lo:k*b+hi])
	}
	op.step(me, rk, c, pr, 1)
	return rk.powerAdvance(c, tol, pr)
}

// powerAdvance is the operator-agnostic tail of one power iteration: the
// convergence scalars from the finished y arena, their all-reduce, the
// shared convergence test, and the normalization of the owned iterate
// chunks.
func (rk *sessionRank) powerAdvance(c *machine.Comm, tol float64, pr *phaseRecorder) (stop, converged, singular bool) {
	b := rk.b
	rows := rk.lay.rows
	stride := rk.stride()

	// λ = xᵀy and ‖y‖² from owned chunks, combined globally.
	rk.pbuf[0], rk.pbuf[1] = 0, 0
	for k := range rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		yc := rk.yA[k*stride+lo : k*stride+hi]
		xc := rk.chunk[k*b+lo : k*b+hi]
		for t := range yc {
			rk.pbuf[0] += xc[t] * yc[t]
			rk.pbuf[1] += yc[t] * yc[t]
		}
	}
	var sums []float64
	pr.comm(c, "all-reduce", func() { sums = rk.world.AllReduceSum(300, rk.pbuf[:]) })
	lambda := sums[0]
	ynorm := math.Sqrt(sums[1])
	rk.pmLambda = lambda

	if math.Abs(lambda-rk.pmPrev) <= tol*(1+math.Abs(lambda)) {
		return true, true, false
	}
	rk.pmPrev = lambda
	if ynorm == 0 {
		// Singular: y vanished, so the iterate cannot be renormalized.
		// Keep the current iterate and stop — this is not convergence.
		return true, false, true
	}
	for k := range rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		yc := rk.yA[k*stride+lo : k*stride+hi]
		xc := rk.chunk[k*b+lo : k*b+hi]
		for t := range xc {
			xc[t] = yc[t] / ynorm
		}
	}
	return false, false, false
}

// powerIterOp is the rank closure of one power-method iteration. Making
// each iteration its own dispatch keeps the crash-recovery checkpoint
// granularity at one operator step: a crash replays the iteration it hit,
// not the whole method.
func (s *Session) powerIterOp(tol float64, pr *phaseRecorder, st *powerIterState) func(me int, c *machine.Comm) {
	return func(me int, c *machine.Comm) {
		st.stop[me], st.converged[me], st.singular[me] = s.rk[me].powerStep(s.op, me, c, pr, tol)
	}
}

// powerPhases is the power method's phase list: the operator's step plus
// the convergence all-reduce.
func powerPhases(op localOperator) []string { return append(op.phases(), "all-reduce") }

// checkPower rejects a power method on an operator of unknown dimension
// or over a wiring other than point-to-point.
func checkPower(n int, w Wiring) error {
	if n == 0 {
		return fmt.Errorf("parallel: power method requires a tensor")
	}
	if w != WiringP2P {
		return fmt.Errorf("parallel: power method supports the p2p wiring only")
	}
	return nil
}

// startVector is the power method's deterministic unit start vector,
// zero-padded to the padded dimension.
func startVector(n, padded int, seed int64) []float64 {
	x0 := make([]float64, padded)
	norm := 0.0
	for i := 0; i < n; i++ {
		x0[i] = math.Sin(float64(i+1)*1.7 + float64(seed))
		norm += x0[i] * x0[i]
	}
	norm = math.Sqrt(norm)
	for i := 0; i < n; i++ {
		x0[i] /= norm
	}
	return x0
}

// seedPower loads the rank's owned spans of the start vector into its
// iterate chunks and resets the convergence scalars.
func (rk *sessionRank) seedPower(x0 []float64) {
	b := rk.b
	for k, row := range rk.lay.rows {
		lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
		copy(rk.chunk[k*b+lo:k*b+hi], x0[row*b+lo:row*b+hi])
	}
	rk.pmLambda, rk.pmPrev = 0, math.Inf(1)
}

// PowerMethod runs the distributed higher-order power method (Algorithm 1)
// on the resident machine: the iterate stays distributed in the chunk
// layout across iterations, each iteration is one dispatched operation
// reusing the session's arenas and message buffers, and the host drives
// the convergence loop on flags the ranks derive from the all-reduced
// scalars. Results and meters are exactly those of RunPowerMethod.
func (s *Session) PowerMethod(po PowerOptions) (*EigenResult, error) {
	if s.closed {
		return nil, fmt.Errorf("parallel: session closed")
	}
	if err := checkPower(s.n, s.opts.Wiring); err != nil {
		return nil, err
	}
	if po.MaxIter <= 0 {
		po.MaxIter = 200
	}
	if po.Tol <= 0 {
		po.Tol = 1e-12
	}
	if !s.inflight.CompareAndSwap(false, true) {
		return nil, ErrSessionBusy
	}
	defer s.inflight.Store(false)

	// Seed the distributed iterate host-side (every rank is parked
	// between operations, so its chunk arena is the host's to write).
	x0 := startVector(s.n, s.padded, po.Seed)
	for _, rk := range s.rk {
		rk.seedPower(x0)
	}

	p := s.part.P
	pr := newPhaseRecorder(p, powerPhases(s.op)...)
	base := make([]machine.Meters, p)
	for r := range base {
		base[r] = s.cur.h.RankMeters(r)
	}

	st := &powerIterState{stop: make([]bool, p), converged: make([]bool, p), singular: make([]bool, p)}
	iterations := 0
	for iterations < po.MaxIter {
		iterations++
		if err := s.dispatch(pr, dirtyIterate, s.powerIterOp(po.Tol, pr, st)); err != nil {
			return nil, err
		}
		if st.stop[0] {
			break
		}
	}

	// Iterations counts dispatched operator steps exactly: a run stopped
	// by the MaxIter cap reports MaxIter, not MaxIter+1, and Converged
	// stays false for both the cap exit and the singular exit.
	deltas := make([]machine.Meters, p)
	for r := range deltas {
		deltas[r] = s.cur.h.RankMeters(r).Sub(base[r])
	}
	xOut := make([]float64, s.padded)
	b := s.b
	for _, rk := range s.rk {
		for k, row := range rk.lay.rows {
			lo, hi := rk.lay.myLo[k], rk.lay.myHi[k]
			copy(xOut[row*b+lo:row*b+hi], rk.chunk[k*b+lo:k*b+hi])
		}
	}
	pr.setSteps(s.lay.steps * iterations)
	return &EigenResult{
		Lambda:     s.rk[0].pmLambda,
		X:          xOut[:s.n],
		Iterations: iterations,
		Converged:  st.converged[0],
		Singular:   st.singular[0],
		Report:     reportFromDeltas(deltas),
		Phases:     pr.results(),
	}, nil
}

// MTTKRP computes the symmetric MTTKRP Y_iℓ = Σ_jk a_ijk·X_jℓ·X_kℓ as one
// batched application over the factor columns (see RunMTTKRP for the cost
// model). x may be nil for pure communication measurements at rank r.
func (s *Session) MTTKRP(x *la.Matrix, r int) (*la.Matrix, *Result, error) {
	if x != nil {
		r = x.Cols
	}
	if r < 1 {
		return nil, nil, fmt.Errorf("parallel: rank %d", r)
	}
	var n int
	switch {
	case x != nil:
		n = x.Rows
	case s.n > 0:
		n = s.n
	default:
		n = s.padded
	}
	X := make([][]float64, r)
	for l := 0; l < r; l++ {
		col := make([]float64, n)
		if x != nil {
			for i := 0; i < n; i++ {
				col[i] = x.At(i, l)
			}
		}
		X[l] = col
	}
	deltas, pr, err := s.applyCols(X)
	if err != nil {
		return nil, nil, err
	}
	y := la.NewMatrix(n, r)
	for l := 0; l < r; l++ {
		for i := 0; i < n; i++ {
			y.Set(i, l, s.stageY[l][i])
		}
	}
	res := &Result{
		Report:  reportFromDeltas(deltas),
		Phases:  pr.results(),
		Ternary: pr.meter("local").Ternary,
		Steps:   s.lay.steps,
	}
	return y, res, nil
}

// reportFromDeltas assembles a per-operation machine report from the
// ranks' counter deltas: identical to what a fresh run of just that
// operation would report.
func reportFromDeltas(d []machine.Meters) *machine.Report {
	p := len(d)
	rep := &machine.Report{
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
	for i, m := range d {
		rep.SentWords[i] = m.SentWords
		rep.RecvWords[i] = m.RecvWords
		rep.SentMsgs[i] = m.SentMsgs
		rep.RecvMsgs[i] = m.RecvMsgs
		rep.WireSentWords[i] = m.WireSentWords
		rep.WireRecvWords[i] = m.WireRecvWords
		rep.WireSentMsgs[i] = m.WireSentMsgs
		rep.WireRecvMsgs[i] = m.WireRecvMsgs
	}
	return rep
}
