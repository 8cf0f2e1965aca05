package machine

import "testing"

// BenchmarkStepExchange times the handoff path a resident session runs
// per schedule step, without any kernel work: P = 68 ranks (the q = 4
// Steiner partition) run 110 supersteps per iteration — the step count of
// one q = 4 Apply, gather plus reduce-scatter — each posting one 8-word
// message to a rotating peer, crossing the barrier, then receiving the
// message addressed to it. The machine is started once and warmed, so
// the timed loop measures Send, Barrier and RecvInto alone.
func BenchmarkStepExchange(b *testing.B) {
	const p, steps, words = 68, 110, 8
	warm, start := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := RunWith(p, RunConfig{}, func(c *Comm) {
			me := c.Rank()
			src := make([]float64, words)
			dst := make([]float64, words)
			superstep := func(s int) {
				shift := 1 + s%(p-1)
				c.Send((me+shift)%p, s, src)
				c.Barrier()
				c.RecvInto((me-shift+p)%p, s, dst)
			}
			for s := 0; s < steps; s++ {
				superstep(s)
			}
			c.Barrier()
			if me == 0 {
				close(warm)
			}
			<-start
			for i := 0; i < b.N; i++ {
				for s := 0; s < steps; s++ {
					superstep(s)
				}
			}
		})
		done <- err
	}()
	<-warm
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}
