package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Quiet-host selection. On a virtual machine the hypervisor can take the
// processors away ("steal" time) for seconds at a time, and a
// handoff-bound Apply of 68 rank goroutines on two processors stretches by
// every stolen millisecond. Timings are therefore taken in segments of
// half a second, each tagged with the share of processor time the host
// stole during it. A loop runs until the segments with at most
// maxStealShare stolen are enough for its statistics, or until maxStretch
// times its planned length has passed. The statistics then use the least
// disturbed segments that are enough. The checks run on every operation of
// every segment, and each run's record lists the steal share of every
// segment and how many were left out.
const (
	maxStealShare = 0.02
	maxStretch    = 5
	segmentLength = 500 * time.Millisecond
)

// cpuTimes is a reading of the host's cumulative steal and total processor
// time, in clock ticks, from the first line of /proc/stat.
type cpuTimes struct {
	steal, total int64
	ok           bool
}

func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var c cpuTimes
	for i, v := range f[1:] {
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		c.total += x
		if i == 7 { // user nice system idle iowait irq softirq steal
			c.steal = x
		}
	}
	c.ok = true
	return c
}

// stealShare returns the share of processor time stolen between two
// readings, 0 when steal time is not available.
func stealShare(a, b cpuTimes) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// segment is one stretch of timed operations.
type segment struct {
	lat    []float64     // per-operation times, ms
	iters  []float64     // power-method iterations per solve
	dur    time.Duration // wall time of the timed operations
	traced bool
	steal  float64
}

// segments collects the segments of one timed loop.
type segments struct {
	b     *bench
	start time.Time
	limit time.Duration // after this, all segments count
	mark  cpuTimes
	all   []segment
}

func (b *bench) newSegments(limit time.Duration) *segments {
	return &segments{b: b, start: time.Now(), limit: limit}
}

// begin starts a segment.
func (s *segments) begin() { s.mark = readCPUTimes() }

// end closes the segment begun last, recording the host's steal share
// since then.
func (s *segments) end(seg segment) {
	seg.steal = stealShare(s.mark, readCPUTimes())
	s.all = append(s.all, seg)
}

func (s *segments) quiet() []segment {
	var q []segment
	for _, seg := range s.all {
		if seg.steal <= maxStealShare {
			q = append(q, seg)
		}
	}
	return q
}

// done reports whether the loop may stop: its quiet segments are enough,
// or it has run past its limit and all its segments are enough.
func (s *segments) done(enough func([]segment) bool) bool {
	if enough(s.quiet()) {
		return true
	}
	return time.Since(s.start) >= s.limit && enough(s.all)
}

// pick returns the segments the statistics use — the fewest, least
// disturbed segments that are enough, or all of them when no subset is —
// and records the choice in the run record.
func (s *segments) pick(enough func([]segment) bool) []segment {
	order := append([]segment(nil), s.all...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].steal < order[j].steal })
	use := s.all
	for k := 1; k <= len(order); k++ {
		if enough(order[:k]) {
			use = order[:k]
			break
		}
	}
	kept := 0
	for _, seg := range s.all {
		s.b.stealShares = append(s.b.stealShares, seg.steal)
		s.b.discardedOps += len(seg.lat)
	}
	for _, seg := range use {
		kept += len(seg.lat)
	}
	s.b.discardedOps -= kept
	s.b.discardedSegments += len(s.all) - len(use)
	return use
}

// merged concatenates the latencies of the traced or untraced segments
// and sums their durations.
func merged(segs []segment, traced bool) (lat, iters []float64, dur time.Duration) {
	for _, seg := range segs {
		if seg.traced == traced {
			lat = append(lat, seg.lat...)
			iters = append(iters, seg.iters...)
			dur += seg.dur
		}
	}
	return lat, iters, dur
}
