package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/intmath"
)

func TestKindOfBlock(t *testing.T) {
	cases := []struct {
		I, J, K int
		want    BlockKind
	}{
		{3, 2, 1, OffDiagonal},
		{2, 2, 1, DiagPairHigh},
		{2, 1, 1, DiagPairLow},
		{2, 2, 2, Central},
	}
	for _, c := range cases {
		if got := KindOfBlock(c.I, c.J, c.K); got != c.want {
			t.Errorf("KindOfBlock(%d,%d,%d) = %v, want %v", c.I, c.J, c.K, got, c.want)
		}
	}
}

func TestBlockLen(t *testing.T) {
	for b := 1; b <= 8; b++ {
		if got := BlockLen(OffDiagonal, b); got != b*b*b {
			t.Errorf("OffDiagonal b=%d: %d", b, got)
		}
		if got := BlockLen(DiagPairHigh, b); got != b*b*(b+1)/2 {
			t.Errorf("DiagPairHigh b=%d: %d", b, got)
		}
		if got := BlockLen(DiagPairLow, b); got != b*b*(b+1)/2 {
			t.Errorf("DiagPairLow b=%d: %d", b, got)
		}
		if got := BlockLen(Central, b); got != intmath.Tetrahedral(b) {
			t.Errorf("Central b=%d: %d", b, got)
		}
	}
}

func TestBlockOffsetBijective(t *testing.T) {
	// ForEach must visit offsets 0..len-1 in order, and offset() must
	// agree with the iteration order, for every kind.
	for _, coords := range [][3]int{{3, 2, 1}, {2, 2, 1}, {2, 1, 1}, {1, 1, 1}} {
		for b := 1; b <= 5; b++ {
			blk := NewBlock(coords[0], coords[1], coords[2], b)
			next := 0
			blk.ForEach(func(di, dj, dk int, _ float64) {
				if got := blk.offset(di, dj, dk); got != next {
					t.Fatalf("%v b=%d: offset(%d,%d,%d) = %d, want %d",
						blk.Kind, b, di, dj, dk, got, next)
				}
				next++
			})
			if next != len(blk.Data) {
				t.Fatalf("%v b=%d: visited %d of %d", blk.Kind, b, next, len(blk.Data))
			}
		}
	}
}

func TestBlockSetAt(t *testing.T) {
	blk := NewBlock(2, 2, 0, 3) // DiagPairHigh
	blk.Set(2, 1, 0, 7)
	if blk.At(2, 1, 0) != 7 {
		t.Fatal("Set/At disagree")
	}
}

func TestBlockOffsetPanicsOnInvalidLocal(t *testing.T) {
	cases := []struct {
		coords  [3]int
		d       [3]int
		mustErr bool
	}{
		{[3]int{2, 2, 1}, [3]int{0, 1, 0}, true},  // DiagPairHigh needs di >= dj
		{[3]int{2, 1, 1}, [3]int{0, 0, 1}, true},  // DiagPairLow needs dj >= dk
		{[3]int{1, 1, 1}, [3]int{0, 1, 0}, true},  // Central needs sorted
		{[3]int{3, 2, 1}, [3]int{0, 1, 2}, false}, // OffDiagonal free
	}
	for _, c := range cases {
		blk := NewBlock(c.coords[0], c.coords[1], c.coords[2], 3)
		func() {
			defer func() {
				if r := recover(); (r != nil) != c.mustErr {
					t.Errorf("block %v local %v: panic=%v, want %v", c.coords, c.d, r != nil, c.mustErr)
				}
			}()
			blk.At(c.d[0], c.d[1], c.d[2])
		}()
	}
}

func TestExtractBlockMatchesGlobal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n, b := 12, 3 // m = 4 blocks per mode
	a := Random(n, rng)
	m := n / b
	BlocksOfTetrahedron(m, func(I, J, K int) {
		blk := ExtractBlock(a, I, J, K, b)
		blk.ForEach(func(di, dj, dk int, v float64) {
			i, j, k := blk.GlobalIndices(di, dj, dk)
			if want := a.At(i, j, k); v != want {
				t.Fatalf("block (%d,%d,%d) local (%d,%d,%d): %g want %g",
					I, J, K, di, dj, dk, v, want)
			}
		})
	})
}

func TestExtractBlockPadding(t *testing.T) {
	// n=10 padded to 12 with b=3: global indices 10, 11 read as zero.
	rng := rand.New(rand.NewSource(11))
	a := Random(10, rng)
	blk := ExtractBlock(a, 3, 3, 3, 3) // covers globals 9..11
	blk.ForEach(func(di, dj, dk int, v float64) {
		i, j, k := blk.GlobalIndices(di, dj, dk)
		if i >= 10 || j >= 10 || k >= 10 {
			if v != 0 {
				t.Fatalf("padded entry (%d,%d,%d) = %g, want 0", i, j, k, v)
			}
		} else if v != a.At(i, j, k) {
			t.Fatalf("in-range entry (%d,%d,%d) wrong", i, j, k)
		}
	})
}

func TestBlockStorageTotalsMatchTensor(t *testing.T) {
	// Summing stored sizes of all blocks in the block tetrahedron must
	// give exactly the packed size of the padded tensor: the partition
	// stores each lower-tetrahedron element exactly once.
	for _, c := range []struct{ m, b int }{{4, 3}, {5, 2}, {3, 4}, {10, 1}} {
		total := 0
		BlocksOfTetrahedron(c.m, func(I, J, K int) {
			total += BlockLen(KindOfBlock(I, J, K), c.b)
		})
		if want := intmath.Tetrahedral(c.m * c.b); total != want {
			t.Errorf("m=%d b=%d: block storage %d, tensor storage %d", c.m, c.b, total, want)
		}
	}
}

func TestGlobalIndicesAreLowerTetrahedral(t *testing.T) {
	// Every stored block entry corresponds to a sorted global triple.
	for _, coords := range [][3]int{{3, 2, 1}, {2, 2, 1}, {2, 1, 1}, {1, 1, 1}} {
		blk := NewBlock(coords[0], coords[1], coords[2], 4)
		blk.ForEach(func(di, dj, dk int, _ float64) {
			i, j, k := blk.GlobalIndices(di, dj, dk)
			if i < j || j < k {
				t.Fatalf("block %v local (%d,%d,%d): global (%d,%d,%d) not sorted",
					blk.Kind, di, dj, dk, i, j, k)
			}
		})
	}
}

func TestBlockKindString(t *testing.T) {
	for k, want := range map[BlockKind]string{
		OffDiagonal:   "off-diagonal",
		DiagPairHigh:  "diag-pair-high",
		DiagPairLow:   "diag-pair-low",
		Central:       "central",
		BlockKind(42): "BlockKind(42)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d: %q != %q", int(k), got, want)
		}
	}
}

// checkBlockAgainstTensor compares every stored entry of blk with the
// tensor it was filled from: a.At of the entry's global indices, or 0 when
// any of them falls in the padding. The entries are enumerated by ForEach
// and Block.At, not by the fill under test.
func checkBlockAgainstTensor(t *testing.T, what string, blk *Block, a *Symmetric) {
	t.Helper()
	if len(blk.Data) != BlockLen(blk.Kind, blk.B) {
		t.Fatalf("%s: %d stored values, want %d", what, len(blk.Data), BlockLen(blk.Kind, blk.B))
	}
	blk.ForEach(func(di, dj, dk int, v float64) {
		i, j, k := blk.GlobalIndices(di, dj, dk)
		want := 0.0
		if i < a.N && j < a.N && k < a.N {
			want = a.At(i, j, k)
		}
		if v != want || blk.At(di, dj, dk) != want {
			t.Fatalf("%s local (%d,%d,%d) global (%d,%d,%d): %g, want %g",
				what, di, dj, dk, i, j, k, v, want)
		}
	})
}

// TestFillMatchesTensorOracle pins the block fill shared by ExtractBlock,
// ExtractBlockInto and PackTetrahedron against the tensor itself, for all
// four block kinds, block edges that do and do not divide n, and every
// block of a grid one block larger than the padded cover of n — so blocks
// that are partly or wholly padding are filled too.
func TestFillMatchesTensorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{1, 7, 10, 13} {
		a := Random(n, rng)
		for _, b := range []int{1, 2, 3, 5} {
			m := (n+b-1)/b + 1
			bp := PackTetrahedron(a, m, b)
			scratch := &Block{Data: make([]float64, 0, b*b*b)}
			kinds := map[BlockKind]bool{}
			BlocksOfTetrahedron(m, func(I, J, K int) {
				kinds[KindOfBlock(I, J, K)] = true
				name := fmt.Sprintf("n=%d b=%d block (%d,%d,%d)", n, b, I, J, K)
				checkBlockAgainstTensor(t, name+" ExtractBlock", ExtractBlock(a, I, J, K, b), a)
				checkBlockAgainstTensor(t, name+" PackTetrahedron", bp.At(I, J, K), a)
				dirty := scratch.Data[:cap(scratch.Data)]
				for x := range dirty {
					dirty[x] = math.NaN()
				}
				checkBlockAgainstTensor(t, name+" ExtractBlockInto", ExtractBlockInto(scratch, a, I, J, K, b), a)
			})
			if m >= 3 && len(kinds) != 4 {
				t.Fatalf("n=%d b=%d: saw kinds %v, want all four", n, b, kinds)
			}
		}
	}
}
