// Package collective layers MPI-style collective operations over the
// machine simulator: all-gather, reduce-scatter and all-reduce, all over
// the world group of every rank.
//
// The all-gather and reduce-scatter use the P−1-step pairwise-exchange
// schedule that Thakur et al. describe as bandwidth-optimal: in step r
// each member sends to the member r positions ahead and receives from the
// member r positions behind, so every rank sends and receives at most one
// message per step. Algorithm 5's fixed-width All-to-All, whose cost the
// paper charges in §7.2, runs that same schedule as layout data through
// package parallel's superstep exchange rather than through a collective
// here.
//
// Every collective labels the trace events it generates with its operation
// name (machine.Event.Op), so a recorded trace can attribute each word
// moved to the collective that moved it.
package collective

import (
	"fmt"

	"repro/internal/machine"
)

// Group is a rank's handle to the world group: every machine rank, in
// rank order. Every member must call the same collectives in the same
// order.
type Group struct {
	c *machine.Comm
}

// World returns the group of all ranks.
func World(c *machine.Comm) *Group { return &Group{c: c} }

// Comm returns the communicator this group was built over. Callers that
// cache a Group across machine incarnations compare it against their
// current Comm: a group built over a previous epoch's machine would
// unwind straight into that machine's aborted state.
func (g *Group) Comm() *machine.Comm { return g.c }

// Size returns the number of group members.
func (g *Group) Size() int { return g.c.Size() }

// AllGatherV gathers each member's buffer on every member: the result's
// slot i is member i's mine. Buffers may have different lengths.
func (g *Group) AllGatherV(tag int, mine []float64) [][]float64 {
	g.c.BeginOp("all-gather")
	defer g.c.EndOp()
	p, me := g.Size(), g.c.Rank()
	out := make([][]float64, p)
	out[me] = append([]float64(nil), mine...)
	for r := 1; r < p; r++ {
		to := (me + r) % p
		from := (me - r + p) % p
		g.c.Send(to, tag, mine)
		out[from] = g.c.Recv(from, tag)
	}
	return out
}

// ReduceScatterSum reduces elementwise sums across the group and scatters
// the results: contrib[i] is this member's addend for member i's result,
// and the return value is Σ over members of their contrib[me]. All members
// must pass equal shapes for each destination slot.
func (g *Group) ReduceScatterSum(tag int, contrib [][]float64) []float64 {
	g.c.BeginOp("reduce-scatter")
	defer g.c.EndOp()
	p, me := g.Size(), g.c.Rank()
	if len(contrib) != p {
		panic(fmt.Sprintf("collective: ReduceScatterSum with %d buffers for group of %d", len(contrib), p))
	}
	acc := append([]float64(nil), contrib[me]...)
	for r := 1; r < p; r++ {
		to := (me + r) % p
		from := (me - r + p) % p
		g.c.Send(to, tag, contrib[to])
		in := g.c.Recv(from, tag)
		if len(in) != len(acc) {
			panic(fmt.Sprintf("collective: ReduceScatterSum shape mismatch: %d vs %d", len(in), len(acc)))
		}
		for i, v := range in {
			acc[i] += v
		}
	}
	return acc
}

// bcast distributes root's buffer to all members along a binomial tree
// (⌈log₂ P⌉ rounds). Non-root callers pass nil and receive the data; root
// receives a copy of its own buffer.
func (g *Group) bcast(tag, root int, data []float64) []float64 {
	g.c.BeginOp("bcast")
	defer g.c.EndOp()
	p := g.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("collective: bcast root %d of %d", root, p))
	}
	// Work in the rotated space where root is 0. Invariant: at the start
	// of the iteration for a given bit, exactly virtual ranks 0..bit-1
	// hold the data.
	vrank := (g.c.Rank() - root + p) % p
	if vrank == 0 {
		data = append([]float64(nil), data...)
	}
	for bit := 1; bit < p; bit <<= 1 {
		switch {
		case vrank < bit:
			if vrank+bit < p {
				g.c.Send((vrank+bit+root)%p, tag, data)
			}
		case vrank < 2*bit:
			data = g.c.Recv((vrank-bit+root)%p, tag)
		}
	}
	return data
}

// AllReduceSum computes the elementwise sum of every member's buffer on all
// members (reduce to rank 0, then broadcast).
func (g *Group) AllReduceSum(tag int, mine []float64) []float64 {
	g.c.BeginOp("all-reduce")
	defer g.c.EndOp()
	acc := append([]float64(nil), mine...)
	if g.c.Rank() == 0 {
		for r := 1; r < g.Size(); r++ {
			in := g.c.Recv(r, tag)
			if len(in) != len(acc) {
				panic(fmt.Sprintf("collective: AllReduceSum shape mismatch: %d vs %d", len(in), len(acc)))
			}
			for i, v := range in {
				acc[i] += v
			}
		}
	} else {
		g.c.Send(0, tag, acc)
	}
	return g.bcast(tag, 0, acc)
}
