package parallel

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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
