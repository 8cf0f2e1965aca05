package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The serving probe: a q=3, b=4 pool of one session with MaxCols 8,
// MaxWait 1 ms and QueueCap 256, offered seeded Poisson arrivals at
// probeRate for one second, round-robin over four tenants.
const probeRate = 1200.0 // req/s

var tenants = []string{"tenant-0", "tenant-1", "tenant-2", "tenant-3"}

// reqOutcome is one open-loop request as the generator saw it.
type reqOutcome struct {
	lat, late      float64 // ms: from scheduled send to response; send delay
	queue, service float64 // ms, from the Response
	msgs           float64
	failed         bool // refused by admission control, errored or wrong
}

// server is a serving pool with the oracle outputs of its input vectors.
type server struct {
	pool *serve.Pool
	xs   [][]float64
	refs [][]float64
}

// openLoop offers count requests to the pool at seeded Poisson arrival
// times of the given rate, from one generator goroutine. Each request runs
// on its own goroutine (admission control bounds how many wait) and is
// timed from its scheduled send time; every response is compared bit for
// bit with its reference. With a recorder, each request gets a span with
// serve.queue and serve.batch children rebuilt from the Response timings.
func (b *bench) openLoop(sv *server, rate float64, count int, rng *rand.Rand, rec *recorder) []reqOutcome {
	out := make([]reqOutcome, count)
	var mu sync.Mutex
	var wrong []string
	var wg sync.WaitGroup
	t0 := time.Now()
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() / rate
		sched := t0.Add(time.Duration(at * float64(time.Second)))
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		k := i % len(sv.xs)
		req := rec.id()
		wg.Add(1)
		go func(i, k int, sched, sent time.Time) {
			defer wg.Done()
			resp, err := sv.pool.Apply(tenants[i%len(tenants)], sv.xs[k])
			end := time.Now()
			o := reqOutcome{lat: ms(end.Sub(sched)), late: ms(sent.Sub(sched))}
			var busy *serve.BusyError
			switch {
			case errors.As(err, &busy):
				o.failed = true
				mu.Lock()
				wrong = append(wrong, fmt.Sprintf("request %d refused: %v", i, err))
				mu.Unlock()
			case err != nil:
				o.failed = true
				mu.Lock()
				wrong = append(wrong, fmt.Sprintf("request %d: %v", i, err))
				mu.Unlock()
			case !bitEqual(resp.Y, sv.refs[k]):
				o.failed = true
				mu.Lock()
				wrong = append(wrong, fmt.Sprintf("request %d: Y differs from the solo Session.Apply reference", i))
				mu.Unlock()
			default:
				o.queue, o.service = ms(resp.QueueWait), ms(resp.Service)
				o.msgs = resp.SentMsgs()
				if rec != nil {
					rec.add(rec.id(), "serve.queue", req, req, sent, sent.Add(resp.QueueWait))
					rec.add(rec.id(), "serve.batch", req, req, end.Add(-resp.Service), end)
				}
			}
			rec.add(req, "serve.Pool.Apply", 0, req, sent, end)
			out[i] = o
		}(i, k, sched, sent)
	}
	wg.Wait()
	for _, w := range wrong {
		b.violate("serve probe: %s", w)
	}
	return out
}

// openServer computes the oracle outputs of a pool's inputs: each vector
// applied once by a solo Session.Apply over the same packed blocks, itself
// checked against the one-shot parallel.Run reference.
func (b *bench) openServer(a *tensor.Symmetric, st *stack, xs [][]float64) *server {
	runRefs := b.references(a, st, xs)
	if runRefs == nil {
		return nil
	}
	solo := &stack{}
	var err error
	if solo.sess, err = parallel.OpenSession(a, st.opts); err != nil {
		b.violate("solo session: %v", err)
		return nil
	}
	defer b.closeStack(solo)
	refs := make([][]float64, len(xs))
	for k, x := range xs {
		res, err := solo.sess.Apply(x)
		if err != nil {
			b.violate("solo Apply: %v", err)
			return nil
		}
		refs[k] = res.Y
		if !bitEqual(res.Y, runRefs[k]) {
			b.violate("solo Session.Apply %d differs from the one-shot parallel.Run reference", k)
		}
	}
	return &server{pool: st.pool, xs: xs, refs: refs}
}

// serveMetrics reports the serving layer's per-layer metrics over the
// requests of a run, and the pool counter deltas between two snapshots.
func (b *bench) serveMetrics(out []reqOutcome, m0, m1 obs.ServingSnapshot) {
	var queue, service, msgs, late []float64
	for _, o := range out {
		late = append(late, o.late)
		if o.failed {
			continue
		}
		queue = append(queue, o.queue)
		service = append(service, o.service)
		msgs = append(msgs, o.msgs)
	}
	n := len(queue)
	b.set("serve.queue_wait_p50_ms", median(queue), n)
	b.set("serve.queue_wait_p99_ms", quantile(queue, 0.99), n)
	b.set("serve.service_p50_ms", median(service), n)
	b.set("serve.service_p99_ms", quantile(service, 0.99), n)
	b.set("serve.msgs_per_req", mean(msgs), n)
	batches := float64(m1.Batches - m0.Batches)
	b.set("serve.batch_cols_mean", float64(m1.Requests-m0.Requests)/batches, int(batches))
	b.set("serve.wait_flush_frac", float64(m1.WaitFlushes-m0.WaitFlushes)/batches, int(batches))
	b.set("serve.rejected", float64(m1.Rejected-m0.Rejected), len(out))
	b.set("loadgen.late_p99_ms", quantile(late, 0.99), len(late))
}

// serveProbe measures the serving layer: the probe pool, traced, with
// every response checked bit for bit against a solo Session.Apply.
func (b *bench) serveProbe() {
	a, xs := smallProblem(b.cfg.seed)
	var t setupTimes
	st, err := b.buildStack(a, 3, 4, true, 0, &t)
	if err != nil {
		b.violate("serve probe: %v", err)
		return
	}
	defer b.closeStack(st)
	sv := b.openServer(a, st, xs)
	if sv == nil {
		return
	}
	m0 := st.pool.Metrics()
	out := b.openLoop(sv, probeRate, int(probeRate), rand.New(rand.NewSource(b.cfg.seed)), b.rec)
	b.serveMetrics(out, m0, st.pool.Metrics())
}
