package main

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/collective"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// probeBudget is the wall time each layer probe aims to spend measuring.
const probeBudget = 2 * time.Second

// kernelTimes is what the kernel probe measured.
type kernelTimes struct {
	rankMax, rankSum float64 // ms
}

// share returns the kernel's critical-path contribution to one Apply: the
// slowest rank, or the total work spread over the available processors,
// whichever is larger.
func (k kernelTimes) share() float64 {
	return math.Max(k.rankMax, k.rankSum/float64(runtime.GOMAXPROCS(0)))
}

// kernelProbe times sttsv.Executor.Contribute on every rank's packed block
// set, one worker, outside the machine. Every rank accumulates into one
// output vector, so after a pass it holds A·x·x, which is checked against
// the session's output want to 1e-9 relative. The ternary count is checked against
// Σ sttsv.BlockTernaryCount over the blocks and against the session's own
// count for one Apply (sessTernary).
func (b *bench) kernelProbe(st *stack, x, want []float64, sessTernary int64) kernelTimes {
	p, bsz := st.part.P, st.b
	padded := st.part.M * bsz
	xp := make([]float64, padded)
	copy(xp, x)
	y := make([]float64, padded)
	xRow := func(i int) []float64 { return xp[i*bsz : (i+1)*bsz] }
	yRow := func(i int) []float64 { return y[i*bsz : (i+1)*bsz] }
	exec := sttsv.NewExecutor(1)

	var wantTernary, bytes int64
	for r := 0; r < p; r++ {
		for _, blk := range st.blocks.Rank(r) {
			wantTernary += sttsv.BlockTernaryCount(blk.Kind, bsz)
			bytes += int64(len(blk.Data)) * 8
		}
	}
	per := make([][]float64, p)
	var ternary int64
	start := time.Now()
	for rep := 0; rep < 3 || (rep < 200 && time.Since(start) < probeBudget/2); rep++ {
		clear(y)
		b.rec.do("sttsv.probe.pass", 0, 0, func() {
			for r := 0; r < p; r++ {
				var s sttsv.Stats
				t0 := time.Now()
				exec.Contribute(st.blocks.Rank(r), bsz, xRow, yRow, &s)
				per[r] = append(per[r], ms(time.Since(t0)))
				if rep == 0 {
					ternary += s.TernaryMults
				}
			}
		})
		if rep == 0 {
			if e := relErr(y[:len(want)], want); !(e <= 1e-9) {
				b.violate("kernel probe: Σ rank contributions differs from the reference by %.3g relative", e)
			}
		}
	}
	var k kernelTimes
	for r := range per {
		m := median(per[r])
		k.rankMax = math.Max(k.rankMax, m)
		k.rankSum += m
	}
	n := len(per[0])
	b.set("sttsv.rank_max_ms", k.rankMax, n)
	b.set("sttsv.rank_sum_ms", k.rankSum, n)
	b.set("sttsv.imbalance", k.rankMax/(k.rankSum/float64(p)), n)
	b.set("sttsv.ternary", float64(ternary), 1)
	b.set("sttsv.ns_per_ternary", k.rankSum*1e6/float64(ternary), n)
	b.set("sttsv.bytes", float64(bytes), 1)
	if ternary != wantTernary {
		b.violate("sttsv.ternary = %d, want Σ BlockTernaryCount = %d", ternary, wantTernary)
	}
	if ternary != sessTernary {
		b.violate("sttsv.ternary = %d, but one session Apply counted %d", ternary, sessTernary)
	}
	return k
}

// Machine probe operations.
const (
	opDispatch = iota
	opBarrier
	opExchange
	opAllReduce
	numProbeOps
)

var probeOpNames = [numProbeOps]string{"dispatch", "barrier", "exchange", "allreduce"}

type probeOp struct {
	kind    int
	pending atomic.Int64
	done    chan struct{}
}

// machineTimes is what the machine probe measured, in ms.
type machineTimes struct {
	dispatch, exchange, allreduce float64
}

// machineProbe times the machine layer outside the session. A resident
// machine.StartWith machine of P ranks parks every rank in AwaitHost, as a
// session does, and the host dispatches one of four operations to all
// ranks and waits for all to finish:
//
//   - dispatch: nothing (the host→rank wake-up and completion handoff);
//   - barrier: the 2·steps barriers of one Apply, no messages;
//   - exchange: the gather and reduce-scatter of one Apply, replaying the
//     schedule's matchings with Send/RecvInto/Barrier at the session's
//     message widths;
//   - allreduce: one 2-word collective AllReduceSum (the power method's).
//
// Operations are interleaved so drift affects all alike. Each result is
// its median minus the dispatch median. The exchange's per-rank sent
// meters must equal the plan's, which the session's meters are also
// checked against. The probe machine is the simulator, as the workloads'
// sessions are.
func (b *bench) machineProbe(p int, pl *exchangePlan) machineTimes {
	ops := make([]chan *probeOp, p)
	for r := range ops {
		ops[r] = make(chan *probeOp, 1)
	}
	got := newRankMeters(p)
	body := func(c *machine.Comm) {
		me := c.Rank()
		send := make([]float64, pl.maxW)
		recv := make([]float64, pl.maxW)
		var world *collective.Group
		buf := make([]float64, 2)
		exchange := func(tagBase int, sendW, recvW [][]int) {
			for s := 0; s < pl.steps; s++ {
				if to := pl.sendTo[me][s]; to >= 0 {
					c.Send(to, tagBase+s, send[:sendW[me][s]])
				}
				if from := pl.recvFrom[me][s]; from >= 0 {
					c.RecvInto(from, tagBase+s, recv[:recvW[me][s]])
				}
				c.Barrier()
			}
		}
		for {
			var op *probeOp
			c.AwaitHost(func() { op = <-ops[me] })
			if op == nil {
				return
			}
			switch op.kind {
			case opBarrier:
				for i := 0; i < 2*pl.steps; i++ {
					c.Barrier()
				}
			case opExchange:
				w0, m0 := c.SentWords(), c.SentMsgs()
				exchange(100, pl.gSend, pl.gRecv)
				w1, m1 := c.SentWords(), c.SentMsgs()
				exchange(200, pl.sSend, pl.sRecv)
				got.gWords[me], got.gMsgs[me] = w1-w0, m1-m0
				got.sWords[me], got.sMsgs[me] = c.SentWords()-w1, c.SentMsgs()-m1
			case opAllReduce:
				if world == nil {
					world = collective.World(c)
				}
				world.AllReduceSum(300, buf)
			}
			if op.pending.Add(-1) == 0 {
				close(op.done)
			}
		}
	}
	h, err := machine.StartWith(p, machine.RunConfig{}, body)
	if err != nil {
		b.violate("machine probe: %v", err)
		return machineTimes{}
	}
	runDone := make(chan struct{})
	var runErr error
	go func() {
		_, runErr = h.Wait()
		close(runDone)
	}()
	dispatch := func(kind int) (time.Duration, bool) {
		op := &probeOp{kind: kind, done: make(chan struct{})}
		op.pending.Store(int64(p))
		t0 := time.Now()
		for r := range ops {
			ops[r] <- op
		}
		select {
		case <-op.done:
			return time.Since(t0), true
		case <-runDone:
			return 0, false
		}
	}
	var samples [numProbeOps][]float64
	ok := true
	start := time.Now()
	for rep := -2; ok && (rep < 20 || (rep < 400 && time.Since(start) < probeBudget)); rep++ {
		for k := range numProbeOps {
			var d time.Duration
			b.rec.do("machine.probe."+probeOpNames[k], 0, 0, func() { d, ok = dispatch(k) })
			if !ok {
				break
			}
			if rep >= 0 { // the first two rounds warm up buffers and pools
				samples[k] = append(samples[k], ms(d))
			}
		}
	}
	for r := range ops {
		close(ops[r])
	}
	<-runDone
	if !ok || runErr != nil {
		b.violate("machine probe: machine died: %v", runErr)
		return machineTimes{}
	}

	n := len(samples[opDispatch])
	disp := median(samples[opDispatch])
	mt := machineTimes{
		dispatch:  disp,
		exchange:  median(samples[opExchange]) - disp,
		allreduce: median(samples[opAllReduce]) - disp,
	}
	steps2 := float64(2 * pl.steps)
	b.set("machine.dispatch_us", disp*1e3, n)
	b.set("machine.barrier_us", (median(samples[opBarrier])-disp)*1e3/steps2, n)
	b.set("machine.exchange_ms", mt.exchange, n)
	b.set("machine.step_us", mt.exchange*1e3/steps2, n)
	b.set("collective.allreduce_us", mt.allreduce*1e3, n)
	words, msgs := got.maxTotals()
	b.set("machine.words", float64(words), n)
	b.set("machine.msgs", float64(msgs), n)
	if want := pl.expected(); !got.equal(want, 1) {
		b.violate("machine probe: per-rank sent meters differ from the exchange plan the session meters match")
	}
	return mt
}

// decompRow is one line of the traced run's decomposition table.
type decompRow struct {
	Name  string  `json:"name"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// decompose splits the base time (Apply p50 or power iteration median)
// into the probes' shares and reports the remainder as
// parallel.unexplained_frac.
func (b *bench) decompose(base string, baseMs float64, mt machineTimes, k kernelTimes, power bool) {
	rows := []decompRow{
		{Name: "machine.dispatch", Ms: mt.dispatch},
		{Name: "machine.exchange", Ms: mt.exchange},
		{Name: "sttsv.kernel (critical path)", Ms: k.share()},
	}
	if power {
		rows = append(rows, decompRow{Name: "collective.allreduce", Ms: mt.allreduce})
	}
	explained := 0.0
	for i := range rows {
		explained += rows[i].Ms
		rows[i].Share = rows[i].Ms / baseMs
	}
	rows = append(rows,
		decompRow{Name: "unexplained", Ms: baseMs - explained, Share: 1 - explained/baseMs},
		decompRow{Name: base, Ms: baseMs, Share: 1})
	b.decomp = rows
	b.set("parallel.unexplained_frac", 1-explained/baseMs, 1)
}

// smallProblem is the fixed q=3, b=4 configuration of the netwire and
// serving probes, with a tensor and vectors drawn from the run's seed.
func smallProblem(seed int64) (*tensor.Symmetric, [][]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := (3*3 + 1) * 4
	return tensor.Random(n, rng), randomVectors(rng, 32, n)
}

// netwireProbe times Session.Apply at q=3, b=4 over the unix-socket
// loopback against the same Apply on the simulator, alternately so both
// see the same host conditions, and reads the framed-to-logical word
// ratio from the socket session's report. Outputs must agree bit for bit.
func (b *bench) netwireProbe() {
	a, xs := smallProblem(b.cfg.seed)
	var t setupTimes
	sim, err := b.buildStack(a, 3, 4, false, 0, &t)
	if err != nil {
		b.violate("netwire probe: %v", err)
		return
	}
	defer b.closeStack(sim)
	unixOpts := sim.opts
	unixOpts.Machine.BackendFactory = unixBackend
	uni := &stack{}
	b.rec.do("parallel.OpenSession", 0, 0, func() { uni.sess, err = parallel.OpenSession(a, unixOpts) })
	if err != nil {
		b.violate("netwire probe: %v", err)
		return
	}
	defer b.closeStack(uni)

	var tSim, tUnix []float64
	var wire, logical int64
	start := time.Now()
	for i := 0; len(tUnix) < 100 || time.Since(start) < probeBudget; i++ {
		x := xs[i%len(xs)]
		var rs, ru *parallel.Result
		var es, eu error
		t0 := time.Now()
		b.rec.do("netwire.probe.sim.Apply", 0, 0, func() { rs, es = sim.sess.Apply(x) })
		t1 := time.Now()
		b.rec.do("netwire.probe.unix.Apply", 0, 0, func() { ru, eu = uni.sess.Apply(x) })
		t2 := time.Now()
		if es != nil || eu != nil {
			b.violate("netwire probe: Apply: %v / %v", es, eu)
			return
		}
		if !bitEqual(ru.Y, rs.Y) {
			b.violate("netwire probe: unix Apply differs from the simulator")
			return
		}
		tSim = append(tSim, ms(t1.Sub(t0)))
		tUnix = append(tUnix, ms(t2.Sub(t1)))
		wire, logical = ru.Report.TotalWireSentWords(), ru.Report.TotalSentWords()
	}
	b.set("netwire.apply_over_sim", median(tUnix)/median(tSim), len(tUnix))
	b.set("netwire.wire_words_ratio", float64(wire)/float64(logical), 1)
}
