package parallel

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// TestSessionApplyConcurrentGuard: a Session is a single-host-goroutine
// engine; concurrent Apply misuse must surface as ErrSessionBusy, never
// as a data race on the staging arenas. Run under -race this test also
// proves the guard closes the race window.
func TestSessionApplyConcurrentGuard(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	rng := rand.New(rand.NewSource(41))
	a := tensor.Random(n, rng)
	s, err := OpenSession(a, Options{Part: part, B: b, Wiring: WiringP2P})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	x := randVec(n, rng)
	want, err := s.Apply(x)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	var busy, applied atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := s.Apply(x)
				switch {
				case errors.Is(err, ErrSessionBusy):
					busy.Add(1)
				case err != nil:
					t.Errorf("concurrent Apply: %v", err)
				default:
					applied.Add(1)
					if !bitsEqual(res.Y, want.Y) {
						t.Error("concurrent Apply produced wrong bits")
					}
				}
			}
		}()
	}
	wg.Wait()
	if applied.Load() == 0 {
		t.Error("no Apply ever won the guard")
	}
	if busy.Load() == 0 {
		t.Error("no Apply was ever rejected; guard untested (raise workers)")
	}
}

// TestPowerMethodCapExit pins the MaxIter exit: an unconverged run
// reports exactly MaxIter iterations (not MaxIter+1) and Converged
// false.
func TestPowerMethodCapExit(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	rng := rand.New(rand.NewSource(42))
	a := tensor.Random(n, rng)
	res, err := RunPowerMethod(a,
		Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 3, Tol: 1e-300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Errorf("Iterations = %d, want exactly MaxIter = 3", res.Iterations)
	}
	if res.Converged {
		t.Error("Converged = true on the MaxIter cap exit")
	}
	if res.Singular {
		t.Error("Singular = true on the MaxIter cap exit")
	}
}

// TestPowerMethodSingularExit pins the degenerate exit: the zero tensor
// annihilates every iterate, so the method must stop after the first
// iteration reporting Singular — and never Converged, which the seed
// implementation claimed.
func TestPowerMethodSingularExit(t *testing.T) {
	part := sphericalPart(t, 2)
	const b = 2
	n := part.M * b
	a := tensor.NewSymmetric(n) // identically zero
	res, err := RunPowerMethod(a,
		Options{Part: part, B: b, Wiring: WiringP2P},
		PowerOptions{MaxIter: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Singular {
		t.Error("Singular = false for the zero tensor")
	}
	if res.Converged {
		t.Error("Converged = true on the singular exit")
	}
	if res.Iterations != 1 {
		t.Errorf("Iterations = %d, want 1 (first y vanishes)", res.Iterations)
	}
	if res.Lambda != 0 {
		t.Errorf("Lambda = %g, want 0", res.Lambda)
	}
}

// TestSessionOpStaleAcrossRecovery pins the check a resident rank makes
// on an operation it has just taken from the host: one dispatched before
// a recovery must be dropped whether the rank looks while the abort is in
// progress or after BeginEpoch has cleared it. A rank that took its op
// but had not yet left AwaitHost reads as parked, so the supervisor can
// quiesce and roll back around it; running the op anyway raced the
// rollback's writes to the rank's state (seen under -race in the MTTKRP
// crash-recovery grid) and could replay an abandoned op in the new epoch.
func TestSessionOpStaleAcrossRecovery(t *testing.T) {
	ops := make(chan func(c *machine.Comm))
	h, err := machine.StartWith(1, machine.RunConfig{}, func(c *machine.Comm) {
		for {
			var f func(c *machine.Comm)
			c.AwaitHost(func() { f = <-ops })
			if f == nil {
				return
			}
			f(c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := func(op *sessionOp) bool {
		res := make(chan bool)
		ops <- func(c *machine.Comm) { res <- op.stale(c) }
		return <-res
	}
	before := &sessionOp{epoch: h.Epoch()}
	if stale(before) {
		t.Fatal("an op of the current epoch reads as stale")
	}
	h.Abort()
	if !stale(before) {
		t.Error("an op taken during an abort reads as current")
	}
	if err := h.Quiesce(time.Second); err != nil {
		t.Fatal(err)
	}
	h.BeginEpoch()
	if !stale(before) {
		t.Error("an op dispatched before the recovery reads as current after BeginEpoch")
	}
	if stale(&sessionOp{epoch: h.Epoch()}) {
		t.Error("an op of the new epoch reads as stale")
	}
	close(ops)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}
