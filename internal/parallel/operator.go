package parallel

import (
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/sttsv"
)

// localOperator is the session's per-rank step seam: everything between
// the staged x arena (every owned chunk filled) and the reduced owned y
// chunks. The apply and power-method bodies around it — staging,
// publishing, the power method's all-reduce, checkpointing, recovery —
// are operator-agnostic, so a dense tensor, a packed sparse tensor and a
// low-rank CP operator all run through the same Session and RankEngine
// code.
type localOperator interface {
	// phases names the step's phase labels in execution order.
	phases() []string
	// step runs rank me's step for cols staged columns, metering every
	// phase through pr.
	step(me int, rk *sessionRank, c *machine.Comm, pr *phaseRecorder, cols int)
}

// exchangeOp is Algorithm 5's step: gather x over the session's wiring,
// apply the rank's tetrahedral block set, reduce-scatter y.
type exchangeOp struct {
	// contribute runs rank me's local compute for cols columns, reading
	// x row blocks and accumulating y row blocks through the rank's arena
	// accessors, and returns the ternary-multiplication count.
	contribute func(me int, rk *sessionRank, cols int) int64
}

func (o *exchangeOp) phases() []string { return []string{"gather", "local", "reduce-scatter"} }

func (o *exchangeOp) step(me int, rk *sessionRank, c *machine.Comm, pr *phaseRecorder, cols int) {
	pr.comm(c, "gather", func() { rk.exchange(c, cols, true) })
	rk.zeroY()
	pr.local(c, "local", func() int64 { return o.contribute(me, rk, cols) })
	pr.comm(c, "reduce-scatter", func() { rk.exchange(c, cols, false) })
}

// denseContribute applies a rank's dense packed block set through the
// shared executor (tiled kernels, or the scalar reference kernel under
// Options.ScalarKernel).
func denseContribute(exec *sttsv.Executor, blocks *RankBlocks) func(me int, rk *sessionRank, cols int) int64 {
	return func(me int, rk *sessionRank, cols int) int64 {
		var st sttsv.Stats
		exec.ContributeCols(rk.scratch, blocks.Rank(me), rk.b, cols, rk.xRow, rk.yRow, &st)
		return st.TernaryMults
	}
}

// sparseContribute applies a rank's packed sparse block set. Blocks are
// walked sequentially in their kind-grouped order and each sparse kernel
// reproduces the scalar dense kernel's association order, so the output
// bits match a dense scalar session exactly while the work is O(nnz)
// instead of O(b³) per block. The arena accessors return reslices of the
// resident arenas, so the steady state allocates nothing.
func sparseContribute(srb *SparseRankBlocks) func(me int, rk *sessionRank, cols int) int64 {
	return func(me int, rk *sessionRank, cols int) int64 {
		var st sttsv.Stats
		blocks := srb.Rank(me)
		for l := 0; l < cols; l++ {
			for _, blk := range blocks {
				sparse.BlockApply(blk,
					rk.xRowCol(blk.I, l), rk.xRowCol(blk.J, l), rk.xRowCol(blk.K, l),
					rk.yRowCol(blk.I, l), rk.yRowCol(blk.J, l), rk.yRowCol(blk.K, l), &st)
			}
		}
		return st.TernaryMults
	}
}
