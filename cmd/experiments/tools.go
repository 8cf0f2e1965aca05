package main

// The structural tools: subcommands that print and check the paper's
// combinatorial objects rather than regenerate an experiment row.
//
//	experiments steiner -q 3          # the (10, 4, 3) system of Table 1
//	experiments steiner -sqs8         # the (8, 4, 3) system of Appendix A
//	experiments steiner -q 4 -stats   # incidence statistics only
//	experiments partition -q 3        # Tables 1 and 2 (-qi=false drops Table 2)
//	experiments partition -sqs8       # Table 3 (m=8, P=14)
//	experiments commsched -sqs8       # the 12-step Figure 1 schedule
//	experiments commsched -q 2 -v     # also list the rows each message carries
//	experiments plan -n 1000 -maxp 400
//	experiments validate              # every structural validator + Algorithm 5 end to end
//
// Indices in the partition and schedule listings are 1-based to match the
// paper.

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

// subcommands maps each tool's name to a constructor that registers its
// flags and returns the body to run once they are parsed.
var subcommands = map[string]func(fs *flag.FlagSet) func() error{
	"steiner":   steinerCmd,
	"partition": partitionCmd,
	"commsched": commschedCmd,
	"plan":      planCmd,
	"validate":  validateCmd,
}

// systemFlags registers the -q / -sqs8 Steiner-system choice the steiner,
// partition and commsched tools share.
func systemFlags(fs *flag.FlagSet) (q *int, sqs8 *bool, system func() (*steiner.System, error)) {
	q = fs.Int("q", 3, "prime power q for the spherical Steiner (q²+1, q+1, 3) system")
	sqs8 = fs.Bool("sqs8", false, "use the Steiner (8,4,3) system (Table 3, Figure 1) instead of -q")
	return q, sqs8, func() (*steiner.System, error) {
		if *sqs8 {
			return steiner.SQS8(), nil
		}
		return steiner.Spherical(*q)
	}
}

// steinerCmd constructs and verifies a Steiner (n, r, 3) system and lists
// its blocks.
func steinerCmd(fs *flag.FlagSet) func() error {
	_, _, system := systemFlags(fs)
	double := fs.Int("double", -1, "build SQS(8·2^k) by k rounds of the doubling construction")
	statsOnly := fs.Bool("stats", false, "print statistics only, not the block list")
	return func() error {
		var sys *steiner.System
		var err error
		if *double >= 0 {
			sys, err = steiner.SQSDoubled(*double)
		} else {
			sys, err = system()
		}
		if err != nil {
			return err
		}
		if err := sys.Verify(); err != nil {
			return fmt.Errorf("verification failed: %w", err)
		}
		fmt.Println(sys)
		fmt.Printf("every point lies in %d blocks; every pair lies in %d blocks; every triple in exactly 1\n",
			sys.ElementCount(), sys.PairCount())
		if *statsOnly {
			return nil
		}
		fmt.Println()
		for i, blk := range sys.Blocks {
			fmt.Printf("%3d: {%s}\n", i+1, join(blk, 0))
		}
		return nil
	}
}

// partitionCmd prints a tetrahedral block partition in the format of the
// paper's Table 1 (R_p, N_p, D_p), Table 2 (Q_i) and Table 3.
func partitionCmd(fs *flag.FlagSet) func() error {
	_, _, system := systemFlags(fs)
	showQi := fs.Bool("qi", true, "also print the row-block sets Q_i (Table 2)")
	return func() error {
		part, err := newPartition(system)
		if err != nil {
			return err
		}
		if err := part.Validate(); err != nil {
			return fmt.Errorf("invalid: %w", err)
		}
		fmt.Printf("Tetrahedral block partition: m=%d row blocks, P=%d processors, |Rp|=%d\n\n",
			part.M, part.P, part.R)
		fmt.Printf("%-4s %-22s %-40s %s\n", "p", "Rp", "Np", "Dp")
		for p := 0; p < part.P; p++ {
			fmt.Printf("%-4d %-22s %-40s %s\n",
				p+1, "{"+join(part.Rp[p], 1)+"}", coordSet(part.Np[p]), coordSet(part.Dp[p]))
		}
		if *showQi {
			fmt.Printf("\n%-4s %s\n", "i", "Qi")
			for i := 0; i < part.M; i++ {
				fmt.Printf("%-4d %s\n", i+1, "{"+join(part.Qi[i], 1)+"}")
			}
		}
		return nil
	}
}

// commschedCmd prints the point-to-point schedule of §7.2 in the style of
// the paper's Figure 1: one line per step listing its transfers.
func commschedCmd(fs *flag.FlagSet) func() error {
	q, sqs8, system := systemFlags(fs)
	verbose := fs.Bool("v", false, "list the row blocks carried by each transfer")
	return func() error {
		part, err := newPartition(system)
		if err != nil {
			return err
		}
		sched, err := schedule.Build(part)
		if err != nil {
			return err
		}
		if err := sched.Validate(part); err != nil {
			return fmt.Errorf("invalid schedule: %w", err)
		}
		fmt.Printf("Point-to-point schedule: P=%d processors, %d steps (all-to-all would use %d)\n",
			part.P, sched.NumSteps(), part.P-1)
		if !*sqs8 {
			fmt.Printf("Theory (q³/2+3q²/2−1 for q=%d): %d steps\n", *q, schedule.TheoreticalSteps(*q))
		}
		fmt.Println()
		for si, step := range sched.Steps {
			parts := make([]string, len(step))
			for i, tr := range step {
				parts[i] = fmt.Sprintf("%d->%d", tr.From+1, tr.To+1)
				if *verbose {
					parts[i] += "[" + join(tr.Rows, 1) + "]"
				}
			}
			fmt.Printf("step %2d: %s\n", si+1, strings.Join(parts, "  "))
		}
		return nil
	}
}

// planCmd enumerates the admissible machine configurations up to a
// processor budget, costs them for dimension n, and recommends the
// cheapest. The predicted words/processor match the metered simulator
// runs exactly when the vector chunks divide evenly.
func planCmd(fs *flag.FlagSet) func() error {
	n := fs.Int("n", 1000, "problem dimension")
	maxP := fs.Int("maxp", 400, "processor budget")
	return func() error {
		cfgs, err := plan.Enumerate(*n, *maxP)
		if err != nil {
			return err
		}
		if len(cfgs) == 0 {
			return fmt.Errorf("no admissible configuration with P <= %d", *maxP)
		}
		best, err := plan.Best(*n, *maxP)
		if err != nil {
			return err
		}
		fmt.Printf("machine configurations for n=%d, P <= %d\n\n", *n, *maxP)
		fmt.Printf("%-12s %-5s %4s %5s %7s %8s %12s %12s %7s %14s\n",
			"family", "q/k", "m", "P", "b", "padded", "words/proc", "lower bound", "steps", "tensor wds/p")
		for _, c := range cfgs {
			marker := " "
			if c == best {
				marker = "*"
			}
			fmt.Printf("%-12s %-5d %4d %5d %7d %8d %12.1f %12.1f %7d %14.0f %s\n",
				c.Family, c.Q, c.M, c.P, c.BlockEdge, c.PaddedN,
				c.Words, c.LowerBound, c.Steps, c.TensorWordsPerProc, marker)
		}
		fmt.Printf("\n* recommended: %v machine with P=%d (predicted %.1f words/processor, bound %.1f)\n",
			best.Family, best.P, best.Words, best.LowerBound)
		return nil
	}
}

// validateCmd runs every structural validator across a parameter sweep —
// Steiner systems (exhaustive triple coverage), tetrahedral partitions,
// communication schedules — plus Algorithm 5 checked end to end against
// the sequential kernel per machine, printing one pass/fail line each.
func validateCmd(fs *flag.FlagSet) func() error {
	qmax := fs.Int("qmax", 4, "largest prime power q to sweep")
	double := fs.Int("double", 1, "doubling rounds of SQS(8) to include")
	numeric := fs.Bool("numeric", true, "also run Algorithm 5 end-to-end against the sequential kernel")
	return func() error {
		failures := 0
		report := func(name string, err error) {
			if err != nil {
				failures++
				fmt.Printf("FAIL  %-40s %v\n", name, err)
				return
			}
			fmt.Printf("ok    %s\n", name)
		}

		var systems []*steiner.System
		for q := 2; q <= *qmax; q++ {
			sys, err := steiner.Spherical(q)
			if err != nil {
				// Non-prime-powers are skipped silently; real failures abort.
				continue
			}
			report(fmt.Sprintf("steiner spherical q=%d (%s)", q, sys), sys.Verify())
			systems = append(systems, sys)
		}
		sqs := steiner.SQS8()
		report(fmt.Sprintf("steiner %s", sqs), sqs.Verify())
		systems = append(systems, sqs)
		for k := 1; k <= *double; k++ {
			sys, err := steiner.SQSDoubled(k)
			if err != nil {
				report(fmt.Sprintf("steiner SQS(8·2^%d)", k), err)
				continue
			}
			report(fmt.Sprintf("steiner %s (doubled)", sys), sys.Verify())
			systems = append(systems, sys)
		}

		for _, sys := range systems {
			part, err := partition.New(sys)
			if err != nil {
				report(fmt.Sprintf("partition from %s", sys), err)
				continue
			}
			report(fmt.Sprintf("partition m=%d P=%d", part.M, part.P), part.Validate())

			sched, err := schedule.Build(part)
			if err != nil {
				report(fmt.Sprintf("schedule P=%d", part.P), err)
				continue
			}
			report(fmt.Sprintf("schedule P=%d (%d steps)", part.P, sched.NumSteps()), sched.Validate(part))

			if *numeric {
				report(fmt.Sprintf("algorithm5 P=%d end-to-end", part.P), endToEnd(part, sched))
			}
		}
		if failures > 0 {
			return fmt.Errorf("%d checks failed", failures)
		}
		return nil
	}
}

// endToEnd runs Algorithm 5 on a small random instance and compares with
// the sequential kernel.
func endToEnd(part *partition.Tetrahedral, sched *schedule.Schedule) error {
	b := 4
	n := part.M * b
	rng := rand.New(rand.NewSource(1))
	a := tensor.Random(n, rng)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := sttsv.Packed(a, x, nil)
	res, err := parallel.Run(a, x, parallel.Options{
		Part: part, Sched: sched, B: b, Wiring: parallel.WiringP2P,
	})
	if err != nil {
		return err
	}
	for i := range want {
		if d := math.Abs(res.Y[i] - want[i]); d > 1e-9 {
			return fmt.Errorf("y[%d] differs by %g", i, d)
		}
	}
	return nil
}

func newPartition(system func() (*steiner.System, error)) (*partition.Tetrahedral, error) {
	sys, err := system()
	if err != nil {
		return nil, err
	}
	return partition.New(sys)
}

// join formats an index list comma-separated, each index shifted by off
// (1 turns the 0-based indices into the paper's 1-based ones).
func join(xs []int, off int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x + off)
	}
	return strings.Join(parts, ",")
}

// coordSet formats block coordinates as 1-based triples.
func coordSet(cs []partition.Coord) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("(%d,%d,%d)", c.I+1, c.J+1, c.K+1)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
