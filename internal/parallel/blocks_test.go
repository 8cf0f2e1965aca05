package parallel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/intmath"
	"repro/internal/la"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// TestRunWithCachedBlocks: supplying pre-packed rank blocks must reproduce
// the self-extracting run bit-for-bit (same block sets, same kernel order)
// while skipping re-extraction.
func TestRunWithCachedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	part := sphericalPart(t, 2) // m=5, P=10
	b := 6
	n := part.M * b
	a := tensor.Random(n, rng)
	x := randVec(n, rng)

	plain, err := Run(a, x, Options{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ { // the cache survives repeated applications
		cached, err := Run(a, x, Options{Part: part, B: b, Blocks: rb})
		if err != nil {
			t.Fatal(err)
		}
		for i := range plain.Y {
			if math.Float64bits(cached.Y[i]) != math.Float64bits(plain.Y[i]) {
				t.Fatalf("rep %d: y[%d] bits differ between cached and plain run", rep, i)
			}
		}
	}
	if want := sttsv.Packed(a, x, nil); maxAbsDiff(plain.Y, want) > tol {
		t.Fatal("run differs from Algorithm 4")
	}
}

// TestRunRejectsMismatchedBlocks: a cache built for a different block edge
// or tensor must be rejected, not silently misused.
func TestRunRejectsMismatchedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	part := sphericalPart(t, 2)
	b := 6
	n := part.M * b
	a := tensor.Random(n, rng)
	x := randVec(n, rng)

	rb, err := PackRankBlocks(a, part, b-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, x, Options{Part: part, B: b, Blocks: rb}); err == nil {
		t.Fatal("mismatched block edge accepted")
	}
	rbNil, err := PackRankBlocks(nil, part, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, x, Options{Part: part, B: b, Blocks: rbNil}); err == nil {
		t.Fatal("cache packed from nil tensor accepted for a tensor run")
	}
}

// TestRunMulticoreLocalPhase: Workers > 1 distributes each rank's local
// compute across the shared-memory executor; the result must match the
// Algorithm 4 oracle and stay bit-deterministic across runs for a fixed
// worker count.
func TestRunMulticoreLocalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	part := sphericalPart(t, 2)
	b := 7 // non-divisible chunking
	n := part.M*b - 3
	a := tensor.Random(n, rng)
	x := randVec(n, rng)
	want := sttsv.Packed(a, x, nil)

	var first []float64
	for run := 0; run < 3; run++ {
		res, err := Run(a, x, Options{Part: part, B: b, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(res.Y, want); d > tol {
			t.Fatalf("run %d: differs from Algorithm 4 by %g", run, d)
		}
		if first == nil {
			first = res.Y
			continue
		}
		for i := range res.Y {
			if math.Float64bits(res.Y[i]) != math.Float64bits(first[i]) {
				t.Fatalf("run %d: y[%d] bits differ across repeated multicore runs", run, i)
			}
		}
	}
}

// TestPowerMethodWithCachedBlocksAndWorkers: the distributed HOPM accepts
// the same cache and executor plumbing.
func TestPowerMethodWithCachedBlocksAndWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	part := sphericalPart(t, 2)
	b := 4
	n := part.M * b
	// A near-rank-one tensor so the power method converges quickly.
	v := randVec(n, rng)
	norm := 0.0
	for _, t := range v {
		norm += t * t
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	a := tensor.RankOne(3, v)

	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunPowerMethod(a, Options{Part: part, B: b}, PowerOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunPowerMethod(a, Options{Part: part, B: b, Blocks: rb, Workers: 2},
		PowerOptions{MaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Converged || !cached.Converged {
		t.Fatalf("convergence: plain=%v cached=%v", plain.Converged, cached.Converged)
	}
	if d := math.Abs(plain.Lambda - cached.Lambda); d > 1e-8 {
		t.Fatalf("lambda differs by %g between plain and cached/multicore runs", d)
	}
}

// TestMTTKRPWithCachedBlocks: the multi-vector product reuses the cache
// across all r columns.
func TestMTTKRPWithCachedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	part := sphericalPart(t, 2)
	b := 4
	n := part.M * b
	r := 3
	a := tensor.Random(n, rng)
	xm := la.NewMatrix(n, r)
	for i := range xm.Data {
		xm.Data[i] = rng.NormFloat64()
	}

	rb, err := PackRankBlocks(a, part, b)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := RunMTTKRP(a, xm, r, Options{Part: part, B: b})
	if err != nil {
		t.Fatal(err)
	}
	cached, _, err := RunMTTKRP(a, xm, r, Options{Part: part, B: b, Blocks: rb, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for l := 0; l < r; l++ {
			if d := math.Abs(plain.At(i, l) - cached.At(i, l)); d > tol {
				t.Fatalf("Y[%d,%d] differs by %g", i, l, d)
			}
		}
	}
}

// TestPackRankBlocksCoversTensorOnce: across all ranks' packed blocks,
// every word of the packed lower tetrahedron appears exactly once and every
// other stored word is padding. The tensor holds Data[x] = x+1, so a
// nonzero packed value names the tetrahedron index it came from. Run under
// -race it also covers the concurrent pack.
func TestPackRankBlocksCoversTensorOnce(t *testing.T) {
	for _, c := range []struct{ q, b int }{{2, 3}, {3, 2}} {
		part := sphericalPart(t, c.q)
		n := part.M*c.b - 1 // not a multiple of b: the last row block is padded
		a := tensor.NewSymmetric(n)
		for x := range a.Data {
			a.Data[x] = float64(x + 1)
		}
		rb, err := PackRankBlocks(a, part, c.b)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, len(a.Data))
		padding := 0
		for p := 0; p < part.P; p++ {
			for _, blk := range rb.Rank(p) {
				for _, v := range blk.Data {
					if v == 0 {
						padding++
						continue
					}
					seen[int(v)-1]++
				}
			}
		}
		for x, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("q=%d b=%d n=%d: packed index %d appears %d times across ranks, want once", c.q, c.b, n, x, cnt)
			}
		}
		if want := intmath.Tetrahedral(part.M*c.b) - len(a.Data); padding != want {
			t.Fatalf("q=%d b=%d n=%d: %d padding words, want %d", c.q, c.b, n, padding, want)
		}
		if rb.Words() != intmath.Tetrahedral(part.M*c.b) {
			t.Fatalf("q=%d b=%d: %d packed words, want %d", c.q, c.b, rb.Words(), intmath.Tetrahedral(part.M*c.b))
		}
	}
}

// BenchmarkPackRankBlocks times packing every rank's block set at q = 3,
// b = 16 (n = 160, P = 30): the O(n³) step of setting up a run, a session
// or a serving pool.
func BenchmarkPackRankBlocks(b *testing.B) {
	part := sphericalPart(b, 3)
	const blockEdge = 16
	a := tensor.Random(part.M*blockEdge, rand.New(rand.NewSource(93)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PackRankBlocks(a, part, blockEdge); err != nil {
			b.Fatal(err)
		}
	}
}
