package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// chunkOps is the stretch of consecutive Applies whose time is
// time_to_solution_s on apply-small.
const chunkOps = 100

// opTimes holds closed-loop latencies, split by whether the operation was
// traced, and the time the untraced operations took.
type opTimes struct {
	plain, traced []float64 // ms
	window        time.Duration
}

// closedLoop calls op back to back, one caller, in segments of half a
// second, until the untraced segments it keeps cover the window and hold
// at least minOps operations (see segments). op returns the operation's
// latency and whether it succeeded; the loop stops early after 100
// failures. With a recorder, every other segment is traced, so tracing
// overhead is measured against untraced operations interleaved with it.
func (b *bench) closedLoop(minOps int, op func(i int, rec *recorder) (time.Duration, bool)) opTimes {
	s := b.newSegments(maxStretch * b.window())
	enough := func(segs []segment) bool {
		plain, _, dur := merged(segs, false)
		traced, _, _ := merged(segs, true)
		return dur >= b.window() && len(plain) >= minOps && (b.rec == nil || len(traced) > 0)
	}
	fails, i := 0, 0
	for seg := 0; fails < 100 && !s.done(enough); seg++ {
		var rec *recorder
		if b.rec != nil && seg%2 == 1 {
			rec = b.rec
		}
		var lat []float64
		s.begin()
		start := time.Now()
		for ; time.Since(start) < segmentLength && fails < 100; i++ {
			d, ok := op(i, rec)
			b.op(ok)
			if !ok {
				fails++
				continue
			}
			lat = append(lat, ms(d))
		}
		s.end(segment{lat: lat, dur: time.Since(start), traced: rec != nil})
	}
	use := s.pick(enough)
	var t opTimes
	t.plain, _, t.window = merged(use, false)
	t.traced, _, _ = merged(use, true)
	return t
}

// closedLoopMetrics reports the end-to-end metrics of an untraced closed
// loop: latency percentiles, completion rate, the median time of
// stretches of chunkOps consecutive operations, and the rate one caller
// sustains at the median latency.
func (b *bench) closedLoopMetrics(t opTimes) {
	n := len(t.plain)
	var chunks []float64
	for j := 0; j+chunkOps <= n; j += chunkOps {
		sum := 0.0
		for _, l := range t.plain[j : j+chunkOps] {
			sum += l
		}
		chunks = append(chunks, sum/1e3)
	}
	lat := append([]float64(nil), t.plain...)
	b.set("latency_p50_ms", median(lat), n)
	b.set("latency_p99_ms", quantile(lat, 0.99), n)
	b.set("max_rate_per_s", 1e3/median(lat), n)
	b.set("ops_per_s", float64(n)/t.window.Seconds(), n)
	if len(chunks) > 0 {
		b.set("time_to_solution_s", median(chunks), len(chunks))
	}
}

// runApply drives the apply-small workload: one caller, closed loop,
// Session.Apply on seeded vectors on the simulator at q=4, b=6, every
// output compared bit for bit with the one-shot parallel.Run reference and
// every call's per-phase meters with the plan.
func runApply(b *bench) {
	const q, bsz = 4, 6
	rng := rand.New(rand.NewSource(b.cfg.seed))
	n := (q*q + 1) * bsz
	a := tensor.Random(n, rng)
	xs := randomVectors(rng, 64, n)
	st := b.setup(func(parent int64, t *setupTimes) (*stack, error) {
		return b.buildStack(a, q, bsz, false, parent, t)
	})
	if st == nil {
		return
	}
	defer b.closeStack(st)
	pl, err := newExchangePlan(st.part, st.sched, bsz)
	if err != nil {
		b.violate("exchange plan: %v", err)
		return
	}
	want := pl.expected()
	wantWords, wantMsgs := want.maxTotals()
	refs := b.references(a, st, xs)
	if refs == nil {
		return
	}
	b.corrupt(refs)
	var sessTernary int64
	op := func(i int, rec *recorder) (time.Duration, bool) {
		k := i % len(xs)
		var res *parallel.Result
		var err error
		t0 := time.Now()
		rec.do("parallel.Session.Apply", 0, int64(i+1), func() { res, err = st.sess.Apply(xs[k]) })
		d := time.Since(t0)
		if err != nil {
			b.violate("Apply %d: %v", i, err)
			return d, false
		}
		if !bitEqual(res.Y, refs[k]) {
			b.violate("Apply %d: Y differs from the parallel.Run reference", i)
			return d, false
		}
		if i == 0 {
			for _, t := range res.Ternary {
				sessTernary += t
			}
		}
		return d, b.checkApplyMeters(i, res, want, wantWords, wantMsgs)
	}
	minOps := b.cfg.minOps
	if b.rec != nil {
		minOps = 0 // the traced run reports no tail latency
	}
	t := b.closedLoop(minOps, op)
	b.set("parallel.sent_words_max", float64(wantWords), len(t.plain)+len(t.traced))
	b.set("parallel.sent_msgs_max", float64(wantMsgs), len(t.plain)+len(t.traced))
	if b.rec == nil {
		b.closedLoopMetrics(t)
		return
	}

	p50 := median(t.plain)
	b.set("trace.overhead_frac", median(t.traced)/p50-1, len(t.traced))
	b.set("parallel.iterations", 1, len(t.plain))
	b.set("parallel.iter_ms", p50, len(t.plain))
	kernel := b.kernelProbe(st, xs[0], refs[0], sessTernary)
	mp := b.machineProbe(st.part.P, pl)
	b.decompose("Session.Apply p50", p50, mp, kernel, false)
	b.serveProbe()
	b.netwireProbe()
}

// checkApplyMeters checks one Apply's per-phase meters against the plan
// and its report's maxima against the plan's, which makes them identical
// on every call and every run.
func (b *bench) checkApplyMeters(i int, res *parallel.Result, want rankMeters, words, msgs int64) bool {
	got, err := sessionMeters(res.Phase, len(want.gWords))
	if err != nil {
		b.violate("Apply %d: %v", i, err)
		return false
	}
	if !got.equal(want, 1) {
		b.violate("Apply %d: per-phase sent meters differ from the exchange plan", i)
		return false
	}
	if w, m := res.Report.MaxSentWords(), res.Report.MaxSentMsgs(); w != words || m != msgs {
		b.violate("Apply %d: max sent words/msgs %d/%d, want %d/%d", i, w, m, words, msgs)
		return false
	}
	return true
}

// runPower drives the power-large workload: closed loop of
// Session.PowerMethod solves to Tol 1e-12 on a q=4, b=48 session whose
// rank blocks stream from memory. Every solve must converge, and one extra
// Apply of its eigenvector must satisfy ‖A·x·x − λx‖ ≤ 1e-6·|λ|.
func runPower(b *bench) {
	const q, bsz = 4, 48
	rng := rand.New(rand.NewSource(b.cfg.seed))
	n := (q*q + 1) * bsz
	a := spikedTensor(n, rng)
	st := b.setup(func(parent int64, t *setupTimes) (*stack, error) {
		return b.buildStack(a, q, bsz, false, parent, t)
	})
	if st == nil {
		return
	}
	defer b.closeStack(st)
	pl, err := newExchangePlan(st.part, st.sched, bsz)
	if err != nil {
		b.violate("exchange plan: %v", err)
		return
	}
	want := pl.expected()
	wantWords, wantMsgs := want.maxTotals()
	po := parallel.PowerOptions{MaxIter: 200, Tol: spikeTol, Seed: spikeStartSeed}

	// Each solve is its own segment.
	var sessTernary int64
	var lastX, lastY []float64
	s := b.newSegments(maxStretch * b.window())
	enough := func(segs []segment) bool {
		plain, _, dur := merged(segs, false)
		traced, _, _ := merged(segs, true)
		return dur >= b.window() && len(plain) >= 3 && (b.rec == nil || len(traced) > 0)
	}
	for i := 0; !s.done(enough); i++ {
		var rec *recorder
		if b.rec != nil && i%2 == 1 {
			rec = b.rec
		}
		var er *parallel.EigenResult
		s.begin()
		t0 := time.Now()
		rec.do("parallel.Session.PowerMethod", 0, int64(i+1), func() { er, err = st.sess.PowerMethod(po) })
		d := time.Since(t0)
		y, ok := b.checkSolve(i, st, er, err, want, wantWords, wantMsgs, &sessTernary)
		b.op(ok)
		if !ok {
			break
		}
		s.end(segment{lat: []float64{ms(d)}, iters: []float64{float64(er.Iterations)}, dur: d, traced: rec != nil})
		lastX, lastY = er.X, y
	}
	use := s.pick(enough)
	plain, iters, window := merged(use, false)
	traced, _, _ := merged(use, true)
	iterMs := make([]float64, len(plain))
	for k := range plain {
		iterMs[k] = plain[k] / iters[k]
	}
	b.set("parallel.sent_words_max", float64(wantWords), len(plain)+len(traced))
	b.set("parallel.sent_msgs_max", float64(wantMsgs), len(plain)+len(traced))
	if len(plain) == 0 {
		return
	}
	b.set("parallel.iterations", median(iters), len(iters))
	if b.rec == nil {
		n := len(plain)
		b.set("latency_p50_ms", median(plain), n)
		b.set("latency_p99_ms", quantile(plain, 0.99), n)
		b.set("time_to_solution_s", median(plain)/1e3, n)
		b.set("max_rate_per_s", 1e3/median(plain), n)
		b.set("ops_per_s", float64(n)/window.Seconds(), n)
		return
	}
	p50 := median(plain)
	b.set("trace.overhead_frac", median(traced)/p50-1, len(traced))
	iterP50 := median(iterMs)
	b.set("parallel.iter_ms", iterP50, len(iterMs))
	kernel := b.kernelProbe(st, lastX, lastY, sessTernary)
	mp := b.machineProbe(st.part.P, pl)
	b.decompose("PowerMethod iteration median", iterP50, mp, kernel, true)
	runtime.GC()
	b.serveProbe()
	b.netwireProbe()
}

// The power-large tensor is a spiked random tensor: U(−1,1) entries plus
// spikeWeight·v⊗v⊗v, where the unit spike v has overlap spikeOverlap
// with the method's start vector. A fixed overlap makes the iteration
// count the same for every seed (17 at Tol 1e-12), so time to solution
// measures the engine rather than how lucky a seed's start was; with an
// all-ones spike the count ranged from 24 to 75 over five seeds. At Tol
// 1e-12 the eigenvector residual is about 2e-7·|λ|, inside the oracle's
// 1e-6·|λ|.
const (
	spikeWeight    = 150.0
	spikeOverlap   = 0.5
	spikeTol       = 1e-12
	spikeStartSeed = 1
)

// spikedTensor draws the power-large tensor. The start vector is the one
// Session.PowerMethod derives from PowerOptions{Seed: spikeStartSeed}:
// x₀ᵢ ∝ sin(1.7·(i+1) + seed).
func spikedTensor(n int, rng *rand.Rand) *tensor.Symmetric {
	a := tensor.Random(n, rng)
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = math.Sin(float64(i+1)*1.7 + spikeStartSeed)
	}
	normalize(x0)
	w := make([]float64, n)
	dot := 0.0
	for i := range w {
		w[i] = rng.NormFloat64()
		dot += w[i] * x0[i]
	}
	for i := range w {
		w[i] -= dot * x0[i]
	}
	normalize(w)
	v := make([]float64, n)
	for i := range v {
		v[i] = spikeOverlap*x0[i] + math.Sqrt(1-spikeOverlap*spikeOverlap)*w[i]
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			row := a.Data[tensor.PackedIndex(i, j, 0):]
			f := spikeWeight * v[i] * v[j]
			for k := 0; k <= j; k++ {
				row[k] += f * v[k]
			}
		}
	}
	return a
}

func normalize(x []float64) {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	s = math.Sqrt(s)
	for i := range x {
		x[i] /= s
	}
}

// checkSolve checks one power-method solve: converged, per-phase meters
// equal to the plan times the iteration count, and the residual of one
// extra Apply of the eigenvector, whose output it returns.
func (b *bench) checkSolve(i int, st *stack, er *parallel.EigenResult, err error, want rankMeters, words, msgs int64, sessTernary *int64) ([]float64, bool) {
	if err != nil {
		b.violate("PowerMethod %d: %v", i, err)
		return nil, false
	}
	if !er.Converged {
		b.violate("PowerMethod %d: not converged after %d iterations", i, er.Iterations)
		return nil, false
	}
	got, err := sessionMeters(er.Phase, len(want.gWords))
	if err != nil || !got.equal(want, int64(er.Iterations)) {
		b.violate("PowerMethod %d: per-phase sent meters differ from %d × the exchange plan", i, er.Iterations)
		return nil, false
	}
	res, err := st.sess.Apply(er.X)
	if err != nil {
		b.violate("PowerMethod %d: residual Apply: %v", i, err)
		return nil, false
	}
	if !b.checkApplyMeters(i, res, want, words, msgs) {
		return nil, false
	}
	if *sessTernary == 0 {
		for _, t := range res.Ternary {
			*sessTernary += t
		}
	}
	r2, x2 := 0.0, 0.0
	for k, y := range res.Y {
		d := y - er.Lambda*er.X[k]
		r2 += d * d
		x2 += er.X[k] * er.X[k]
	}
	if r := math.Sqrt(r2); !(r <= 1e-6*math.Abs(er.Lambda)) || math.Abs(x2-1) > 1e-9 {
		b.violate("PowerMethod %d: residual ‖A·x·x − λx‖ = %.3g > 1e-6·|λ| (λ = %.6g, ‖x‖² = %.12g)", i, r, er.Lambda, x2)
		return nil, false
	}
	return res.Y, true
}
