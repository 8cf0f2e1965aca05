package hopm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
)

func unitVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	la.Normalize(x)
	return x
}

func TestPowerMethodRankOne(t *testing.T) {
	// A = 3·v∘v∘v: unique dominant Z-eigenpair (3, v).
	n := 15
	v := unitVec(n, 1)
	a := tensor.RankOne(3, v)
	pair, err := PowerMethod(PackedSTTSV(a), n, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(pair.Lambda-3) > 1e-8 {
		t.Fatalf("lambda = %g, want 3", pair.Lambda)
	}
	// Eigenvector up to sign.
	d := math.Abs(math.Abs(la.Dot(pair.X, v)) - 1)
	if d > 1e-8 {
		t.Fatalf("eigenvector alignment off by %g", d)
	}
	if pair.Residual > 1e-8 {
		t.Fatalf("residual %g", pair.Residual)
	}
}

func TestPowerMethodOrthogonalComponents(t *testing.T) {
	// Odeco tensor with separated weights: power method finds the
	// dominant component.
	n := 10
	e1 := make([]float64, n)
	e1[0] = 1
	e2 := make([]float64, n)
	e2[1] = 1
	a, err := tensor.CP([]float64{5, 2}, [][]float64{e1, e2})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := PowerMethod(PackedSTTSV(a), n, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pair.Lambda-5) > 1e-8 {
		t.Fatalf("lambda = %g, want 5", pair.Lambda)
	}
	if math.Abs(math.Abs(pair.X[0])-1) > 1e-6 {
		t.Fatalf("eigenvector = %v", pair.X[:3])
	}
}

func TestZEigenpairIdentity(t *testing.T) {
	// Any converged output satisfies A ×₂x ×₃x ≈ λx and ‖x‖ = 1 — the
	// defining identity of §1.
	rng := rand.New(rand.NewSource(4))
	a := tensor.Random(8, rng)
	f := PackedSTTSV(a)
	shift := SuggestedShift(a)
	pair, err := PowerMethod(f, 8, Options{Seed: 5, Shift: shift, MaxIter: 20000, Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Converged {
		t.Skipf("SS-HOPM did not converge in budget (shift %g)", shift)
	}
	if math.Abs(la.Norm(pair.X)-1) > 1e-10 {
		t.Fatalf("‖x‖ = %g", la.Norm(pair.X))
	}
	if r := Residual(f, pair.X, pair.Lambda); r > 1e-4 {
		t.Fatalf("eigenpair residual %g", r)
	}
}

func TestShiftedConvergesOnHardTensor(t *testing.T) {
	// Plain S-HOPM can oscillate; SS-HOPM with the suggested shift must
	// converge (Kolda & Mayo) — the "extension feature" behind Options.
	rng := rand.New(rand.NewSource(6))
	a := tensor.Random(6, rng)
	pair, err := PowerMethod(PackedSTTSV(a), 6, Options{
		Seed: 7, Shift: SuggestedShift(a), MaxIter: 50000, Tol: 1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Converged {
		t.Fatalf("SS-HOPM failed to converge; λ = %g, residual %g", pair.Lambda, pair.Residual)
	}
}

func TestPowerMethodDeterministicSeed(t *testing.T) {
	a := tensor.RankOne(2, unitVec(5, 8))
	p1, err := PowerMethod(PackedSTTSV(a), 5, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PowerMethod(PackedSTTSV(a), 5, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Lambda != p2.Lambda || p1.Iterations != p2.Iterations {
		t.Fatal("same seed gave different runs")
	}
}

func TestPowerMethodValidation(t *testing.T) {
	a := tensor.NewSymmetric(3)
	if _, err := PowerMethod(PackedSTTSV(a), 0, Options{}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := PowerMethod(PackedSTTSV(a), 3, Options{X0: []float64{1}}); err == nil {
		t.Error("short X0 accepted")
	}
	if _, err := PowerMethod(PackedSTTSV(a), 3, Options{X0: []float64{0, 0, 0}}); err == nil {
		t.Error("zero X0 accepted")
	}
	// Zero tensor: the first update collapses, which is the singular exit,
	// not an error.
	if pair, err := PowerMethod(PackedSTTSV(a), 3, Options{X0: []float64{1, 0, 0}, Tol: 1e-300}); err != nil || !pair.Singular {
		t.Errorf("collapse not reported as singular (err %v)", err)
	}
}

func TestPowerMethodX0Honored(t *testing.T) {
	n := 6
	v := unitVec(n, 10)
	a := tensor.RankOne(1, v)
	pair, err := PowerMethod(PackedSTTSV(a), n, Options{X0: v})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Iterations > 3 {
		t.Fatalf("start at eigenvector took %d iterations", pair.Iterations)
	}
}

// TestPowerMethodSingularZeroTensor: on the zero tensor the first update
// vanishes. The method must stop without error, report Singular and not
// Converged, keep the unit start iterate, and agree on that exit with the
// distributed Session.PowerMethod.
func TestPowerMethodSingularZeroTensor(t *testing.T) {
	part, err := partition.NewSpherical(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 3
	n := part.M * b
	a := tensor.NewSymmetric(n)
	x0 := unitVec(n, 9)
	pair, err := PowerMethod(PackedSTTSV(a), n, Options{X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.Singular || pair.Converged || pair.Iterations != 1 || pair.Lambda != 0 {
		t.Fatalf("exit (singular %v, converged %v, iterations %d, lambda %g), want (true, false, 1, 0)",
			pair.Singular, pair.Converged, pair.Iterations, pair.Lambda)
	}
	want := append([]float64(nil), x0...)
	la.Normalize(want)
	for i := range want {
		if pair.X[i] != want[i] {
			t.Fatalf("x[%d] = %g, want the start iterate %g", i, pair.X[i], want[i])
		}
	}

	dist, err := parallel.RunPowerMethod(a, parallel.Options{Part: part, B: b}, parallel.PowerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dist.Iterations != pair.Iterations || dist.Converged != pair.Converged || dist.Singular != pair.Singular {
		t.Fatalf("session exit (iterations %d, converged %v, singular %v), hopm (%d, %v, %v)",
			dist.Iterations, dist.Converged, dist.Singular, pair.Iterations, pair.Converged, pair.Singular)
	}
}
