package machine

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestClassSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
		{1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := classSize(c.n); got != c.want {
			t.Errorf("classSize(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPayloadPoolReuse(t *testing.T) {
	var pp payloadPool
	a := pp.get(5)
	if len(a) != 5 || cap(a) != 8 {
		t.Fatalf("get(5): len %d cap %d, want 5/8", len(a), cap(a))
	}
	pp.put(a)
	b := pp.get(7) // same class (8): must be the recycled buffer
	if len(b) != 7 || &b[0] != &a[0] {
		t.Fatal("get after put did not reuse the pooled buffer")
	}
	// Foreign capacities (not an exact class size) are rejected.
	pp.put(make([]float64, 5, 6))
	c := pp.get(5)
	if cap(c) != 8 {
		t.Fatalf("pool accepted a non-class-size buffer (cap %d)", cap(c))
	}
	if pp.get(0) != nil {
		t.Fatal("get(0) must be nil")
	}
}

func TestPayloadPoolClassBound(t *testing.T) {
	var pp payloadPool
	for i := 0; i < maxPooledPerClass+10; i++ {
		pp.put(make([]float64, 8))
	}
	if got := len(pp.classes[classIndex(8)]); got != maxPooledPerClass {
		t.Fatalf("class 8 holds %d buffers, want the %d cap", got, maxPooledPerClass)
	}
}

// TestSteadyStateExchangeZeroAlloc pins the machine-layer half of the
// session engine's zero-allocation guarantee: a Send/RecvInto/Barrier
// loop over the direct transport allocates nothing after one warm-up
// round, because Send draws its defensive copy from the payload pool and
// RecvInto recycles it on delivery.
func TestSteadyStateExchangeZeroAlloc(t *testing.T) {
	checkSteadyStateMallocs(t, func(c *Comm, peer int, src, dst []float64) {
		if c.Rank() == 0 {
			c.Send(peer, 7, src)
			c.RecvInto(peer, 7, dst)
		} else {
			c.RecvInto(peer, 7, dst)
			c.Send(peer, 7, src)
		}
		c.Barrier()
	})
}

// TestSteadyStateOneWayExchangeZeroAlloc is the same guarantee for
// one-way traffic: rank 0 only sends and rank 1 only receives, in the
// superstep order (send, barrier, receive). A received buffer must go
// back to the pool its sender draws from; a pool that kept it on the
// receiving side would make every one of rank 0's Sends allocate.
func TestSteadyStateOneWayExchangeZeroAlloc(t *testing.T) {
	checkSteadyStateMallocs(t, func(c *Comm, peer int, src, dst []float64) {
		if c.Rank() == 0 {
			c.Send(peer, 7, src)
			c.Barrier()
		} else {
			c.Barrier()
			c.RecvInto(peer, 7, dst)
		}
	})
}

// checkSteadyStateMallocs runs exchange for 200 rounds on two ranks after
// a warm-up and fails when the rounds allocate. Every round must send
// one message from rank 0 to rank 1.
func checkSteadyStateMallocs(t *testing.T, exchange func(c *Comm, peer int, src, dst []float64)) {
	const p = 2
	const words = 96
	const rounds = 200
	var mallocs uint64
	rep, err := RunWith(p, RunConfig{}, func(c *Comm) {
		me := c.Rank()
		peer := 1 - me
		src := make([]float64, words)
		dst := make([]float64, words)
		for i := 0; i < 3; i++ { // warm the pool and the barrier path
			exchange(c, peer, src, dst)
		}
		c.Barrier()
		if me == 0 {
			// Measure from rank 0 only; rank 1 runs the same rounds, so
			// any allocation on either side shows up in the global
			// malloc counter read after both ranks pass the barrier.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				exchange(c, peer, src, dst)
			}
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		} else {
			for i := 0; i < rounds; i++ {
				exchange(c, peer, src, dst)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((rounds + 3) * words); rep.SentWords[0] != want {
		t.Fatalf("sent words %d, want %d", rep.SentWords[0], want)
	}
	// ReadMemStats itself and the runtime's background activity can
	// account for a handful of mallocs; the loop moves at least 200
	// messages, so a per-message allocation would show up as >=200.
	if mallocs > 50 {
		t.Fatalf("steady-state exchange performed %d mallocs over %d rounds, want ~0 — Send or RecvInto is allocating per message", mallocs, rounds)
	}
}
