package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/machine"
	"repro/internal/netwire"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// Serving configuration of the serving probe's pool.
const (
	poolMaxCols  = 8
	poolMaxWait  = time.Millisecond
	poolQueueCap = 256
)

// stack is one engine made ready from nothing: partition, schedule, packed
// rank blocks, and either an open session or an open serving pool.
type stack struct {
	q, b   int
	part   *partition.Tetrahedral
	sched  *schedule.Schedule
	blocks *parallel.RankBlocks
	opts   parallel.Options
	sess   *parallel.Session
	pool   *serve.Pool
}

func (s *stack) close() error {
	if s.pool != nil {
		return s.pool.Close()
	}
	if s.sess != nil {
		return s.sess.Close()
	}
	return nil
}

// closeStack closes an engine, recording a failure to close as a
// violation.
func (b *bench) closeStack(s *stack) {
	if err := s.close(); err != nil {
		b.violate("closing engine: %v", err)
	}
}

// setupTimes collects the per-layer set-up timings of repeated set-ups.
type setupTimes struct {
	part, sched, pack, open, total []float64 // ms
}

// unixBackend is the BackendFactory of the netwire probe: every
// machine incarnation gets its own unix-socket loopback.
func unixBackend() (machine.Backend, error) { return netwire.NewLoopback("unix") }

// buildStack runs the set-up path — partition.NewSpherical, schedule.Build,
// parallel.PackRankBlocks, then parallel.OpenSession or serve.Open —
// timing each call and recording it as a span under parent.
func (b *bench) buildStack(a *tensor.Symmetric, q, bsz int, pooled bool, parent int64, t *setupTimes) (*stack, error) {
	st := &stack{q: q, b: bsz}
	var err error
	timed := func(name string, dst *[]float64, f func()) {
		t0 := time.Now()
		b.rec.do(name, parent, 0, f)
		*dst = append(*dst, ms(time.Since(t0)))
	}
	t0 := time.Now()
	if timed("partition.NewSpherical", &t.part, func() { st.part, err = partition.NewSpherical(q) }); err != nil {
		return nil, err
	}
	if timed("schedule.Build", &t.sched, func() { st.sched, err = schedule.Build(st.part) }); err != nil {
		return nil, err
	}
	if timed("parallel.PackRankBlocks", &t.pack, func() { st.blocks, err = parallel.PackRankBlocks(a, st.part, bsz) }); err != nil {
		return nil, err
	}
	st.opts = parallel.Options{Part: st.part, Sched: st.sched, B: bsz, Blocks: st.blocks}
	if pooled {
		timed("serve.Open", &t.open, func() {
			st.pool, err = serve.Open(a, serve.Options{
				Session: st.opts, Sessions: 1,
				MaxCols: poolMaxCols, MaxWait: poolMaxWait, QueueCap: poolQueueCap,
			})
		})
	} else {
		timed("parallel.OpenSession", &t.open, func() { st.sess, err = parallel.OpenSession(a, st.opts) })
	}
	if err != nil {
		return nil, err
	}
	t.total = append(t.total, ms(time.Since(t0)))
	return st, nil
}

// Set-up repetitions: at least minSetups, and more while the set-ups so
// far took less than setupBudget, up to maxSetups.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// setup builds the engine from nothing several times, keeps the last one
// and reports the median set-up time and per-layer set-up metrics, then
// the heap in use after a forced collection. Earlier engines are closed
// and collected before the next set-up starts, so every set-up begins
// from the same heap. Returns nil (with a violation recorded) on failure.
func (b *bench) setup(build func(parent int64, t *setupTimes) (*stack, error)) *stack {
	var t setupTimes
	var st *stack
	start := time.Now()
	reps := 0
	for ; reps < minSetups || (reps < maxSetups && time.Since(start) < setupBudget); reps++ {
		if st != nil {
			b.closeStack(st)
			st = nil
			runtime.GC()
		}
		var err error
		parent := b.rec.id()
		t0 := time.Now()
		st, err = build(parent, &t)
		b.rec.add(parent, "setup", 0, 0, t0, time.Now())
		if err != nil {
			b.violate("set-up: %v", err)
			return nil
		}
	}
	b.set("setup_s", median(t.total)/1e3, reps)
	b.set("partition.build_ms", median(t.part), reps)
	b.set("schedule.build_ms", median(t.sched), reps)
	b.set("parallel.pack_ms", median(t.pack), reps)
	b.set("parallel.open_ms", median(t.open), reps)
	b.set("parallel.pack_words", float64(st.blocks.Words()), 1)

	steps, want := st.sched.NumSteps(), (st.q*st.q*st.q+3*st.q*st.q)/2-1
	b.set("schedule.steps", float64(steps), 1)
	if steps != want {
		b.violate("schedule.steps = %d at q=%d, want q³/2+3q²/2−1 = %d", steps, st.q, want)
	}

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.set("heap_mb", float64(m.HeapAlloc)/(1<<20), 1)
	return st
}

// randomVectors draws k seeded input vectors of length n, entries U(−1,1).
func randomVectors(rng *rand.Rand, k, n int) [][]float64 {
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, n)
		for j := range xs[i] {
			xs[i][j] = 2*rng.Float64() - 1
		}
	}
	return xs
}

// references computes the oracle output of every input vector with the
// one-shot parallel.Run on the simulator, and checks each against the
// sequential Algorithm 4 (sttsv.Packed) to 1e-9 relative.
func (b *bench) references(a *tensor.Symmetric, st *stack, xs [][]float64) [][]float64 {
	opts := st.opts
	opts.Machine = machine.RunConfig{}
	refs := make([][]float64, len(xs))
	for k, x := range xs {
		res, err := parallel.Run(a, x, opts)
		if err != nil {
			b.violate("reference parallel.Run: %v", err)
			return nil
		}
		refs[k] = res.Y
		if e := relErr(res.Y, sttsv.Packed(a, x, nil)); !(e <= 1e-9) {
			b.violate("reference %d differs from sequential sttsv.Packed by %.3g relative", k, e)
		}
	}
	return refs
}

// corrupt flips the lowest bit of one reference output when the run is
// configured to (the oracle's own test), so that every operation on that
// input must be reported as failed.
func (b *bench) corrupt(refs [][]float64) {
	if b.cfg.corruptRef {
		refs[0][0] = math.Float64frombits(math.Float64bits(refs[0][0]) ^ 1)
	}
}

// exchangePlan is the message plan of one Apply derived from the
// partition and schedule alone: for each rank and schedule step, the peer
// it sends to and receives from (−1 for none) and the message widths of
// the gather and the reduce-scatter. A gather message carries the
// sender's owned chunks of the shared rows, a reduce-scatter message the
// receiver's.
type exchangePlan struct {
	p, steps                   int
	sendTo, recvFrom           [][]int
	gSend, gRecv, sSend, sRecv [][]int
	maxW                       int
}

func newExchangePlan(part *partition.Tetrahedral, sched *schedule.Schedule, bsz int) (*exchangePlan, error) {
	pl := &exchangePlan{p: part.P, steps: sched.NumSteps()}
	grid := func(fill int) [][]int {
		g := make([][]int, part.P)
		for r := range g {
			g[r] = make([]int, pl.steps)
			for s := range g[r] {
				g[r][s] = fill
			}
		}
		return g
	}
	pl.sendTo, pl.recvFrom = grid(-1), grid(-1)
	pl.gSend, pl.gRecv, pl.sSend, pl.sRecv = grid(0), grid(0), grid(0), grid(0)
	chunks := func(owner int, rows []int) (int, error) {
		w := 0
		for _, r := range rows {
			lo, hi, ok := part.OwnedRange(owner, r, bsz)
			if !ok {
				return 0, fmt.Errorf("rank %d owns no chunk of row block %d", owner, r)
			}
			w += hi - lo
		}
		return w, nil
	}
	for s, step := range sched.Steps {
		for _, tr := range step {
			gw, err := chunks(tr.From, tr.Rows)
			if err != nil {
				return nil, err
			}
			sw, err := chunks(tr.To, tr.Rows)
			if err != nil {
				return nil, err
			}
			pl.sendTo[tr.From][s], pl.recvFrom[tr.To][s] = tr.To, tr.From
			pl.gSend[tr.From][s], pl.gRecv[tr.To][s] = gw, gw
			pl.sSend[tr.From][s], pl.sRecv[tr.To][s] = sw, sw
			pl.maxW = max(pl.maxW, gw, sw)
		}
	}
	return pl, nil
}

// rankMeters holds per-rank sent words and messages of the two exchange
// phases of one Apply.
type rankMeters struct {
	gWords, gMsgs, sWords, sMsgs []int64
}

func newRankMeters(p int) rankMeters {
	return rankMeters{make([]int64, p), make([]int64, p), make([]int64, p), make([]int64, p)}
}

// expected returns the per-rank sent meters the plan implies.
func (pl *exchangePlan) expected() rankMeters {
	m := newRankMeters(pl.p)
	for r := 0; r < pl.p; r++ {
		for s := 0; s < pl.steps; s++ {
			if pl.sendTo[r][s] >= 0 {
				m.gWords[r] += int64(pl.gSend[r][s])
				m.sWords[r] += int64(pl.sSend[r][s])
				m.gMsgs[r]++
				m.sMsgs[r]++
			}
		}
	}
	return m
}

// maxTotals returns the largest per-rank sent words and messages over
// both phases.
func (m rankMeters) maxTotals() (words, msgs int64) {
	for r := range m.gWords {
		words = max(words, m.gWords[r]+m.sWords[r])
		msgs = max(msgs, m.gMsgs[r]+m.sMsgs[r])
	}
	return words, msgs
}

// equal compares two meter sets, scaling want by k (iterations).
func (m rankMeters) equal(want rankMeters, k int64) bool {
	for r := range m.gWords {
		if m.gWords[r] != k*want.gWords[r] || m.gMsgs[r] != k*want.gMsgs[r] ||
			m.sWords[r] != k*want.sWords[r] || m.sMsgs[r] != k*want.sMsgs[r] {
			return false
		}
	}
	return true
}

// sessionMeters extracts the per-rank gather and reduce-scatter meters of
// a session result.
func sessionMeters(phase func(string) *parallel.PhaseMeter, p int) (rankMeters, error) {
	g, s := phase("gather"), phase("reduce-scatter")
	if g == nil || s == nil || len(g.SentWords) != p || len(s.SentWords) != p {
		return rankMeters{}, fmt.Errorf("missing gather/reduce-scatter phase meters")
	}
	return rankMeters{g.SentWords, g.SentMsgs, s.SentWords, s.SentMsgs}, nil
}
