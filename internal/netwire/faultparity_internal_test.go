package netwire

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// recordWire is a machine.Wire that records every packet pushed through
// it — the far side of the simulated injector under test.
type recordWire struct {
	rank int
	out  []machine.Packet
}

func (w *recordWire) Rank() int                  { return w.rank }
func (w *recordWire) Size() int                  { return 2 }
func (w *recordWire) Deliver(pkt machine.Packet) { w.out = append(w.out, pkt) }
func (w *recordWire) Pull() machine.Packet       { panic("recordWire: Pull") }
func (w *recordWire) PullTimeout(time.Duration) (machine.Packet, bool) {
	return machine.Packet{}, false
}
func (w *recordWire) Aborting() bool { return false }
func (w *recordWire) Epoch() int64   { return 0 }

// sent is one packet an operation put on the wire, identified by the
// sequence number of the operation that produced it.
type sent struct {
	seq     int
	corrupt bool
}

// opOutcome is what one outbound operation observably did.
type opOutcome struct {
	crash   bool
	elapsed time.Duration
	out     []sent // packets that went out intact or corrupted, in order
	torn    []int  // sequence numbers written as torn frames (sockets only)
}

// parityPacket is operation i's packet: every fifth one is a payload-free
// ack, which no corruption may touch.
func parityPacket(rank, i int) machine.Packet {
	if i%5 == 0 {
		return machine.Packet{From: rank, To: 1 - rank, Seq: i, Kind: machine.PacketAck}
	}
	return machine.Packet{From: rank, To: 1 - rank, Seq: i, Kind: machine.PacketData, Data: []float64{float64(i), 1, 2}}
}

// simOutcomes drives fault.Inject for n operations.
func simOutcomes(plan fault.Plan, rank, n int) []opOutcome {
	rec := &recordWire{rank: rank}
	w := fault.Inject(rec, plan)
	res := make([]opOutcome, n+1)
	for i := 1; i <= n; i++ {
		pkt := parityPacket(rank, i)
		rec.out = rec.out[:0]
		start := time.Now()
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(machine.CrashError); !ok {
						panic(r)
					}
					res[i].crash = true
				}
			}()
			w.Deliver(pkt)
		}()
		res[i].elapsed = time.Since(start)
		for _, p := range rec.out {
			orig := parityPacket(rank, p.Seq).Data
			res[i].out = append(res[i].out, sent{seq: p.Seq, corrupt: !floatsEqual(p.Data, orig)})
		}
	}
	return res
}

// socketOutcomes drives the socket chaos layer's decisions for n
// operations, decoding the frames it would write.
func socketOutcomes(t *testing.T, plan fault.Plan, rank, n int) []opOutcome {
	fw := newFaultWire(plan, rank)
	nd := &node{rank: rank}
	res := make([]opOutcome, n+1)
	for i := 1; i <= n; i++ {
		pkt := parityPacket(rank, i)
		start := time.Now()
		actions, crash := fw.decide(nd, pkt.To, pkt)
		res[i].elapsed = time.Since(start)
		res[i].crash = crash != nil
		for _, a := range actions {
			body := a.frame[framePrefixLen:]
			if a.reset {
				res[i].torn = append(res[i].torn, a.pkt.Seq)
				continue
			}
			_, err := DecodeFrame(body)
			if err != nil && !errors.Is(err, errChecksum) {
				t.Fatalf("op %d: undecodable frame: %v", i, err)
			}
			res[i].out = append(res[i].out, sent{seq: a.pkt.Seq, corrupt: err != nil})
		}
	}
	return res
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sentEqual(a, b []sent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFaultParitySimSocket feeds one plan and rank to the simulated
// injector (fault.Inject) and the socket chaos layer (faultWire) for a
// few hundred operations and checks that both act on identical per-op
// decisions — drop, dup, reorder hold and flush, corrupt, stall, reset
// and the crash op — matching the shared fault.Stream, including after
// the MaxFaults budget is exhausted. A reset tears the frame on sockets
// and is a plain loss on the simulator, which has no connections.
func TestFaultParitySimSocket(t *testing.T) {
	const rank, n = 0, 240
	const stall = 2 * time.Millisecond
	plan := fault.Plan{
		Seed: 77, Drop: 0.1, Dup: 0.1, Reorder: 0.15, Corrupt: 0.15, Stall: 0.05, Reset: 0.1,
		StallDelay: stall, Crash: map[int]int{rank: 25}, MaxFaults: 40,
	}
	sim := simOutcomes(plan, rank, n)
	sock := socketOutcomes(t, plan, rank, n)

	ref := fault.NewStream(plan, rank, nil)
	seen := map[string]bool{}
	lastFault := 0
	var held sent
	var simIdle, sockIdle time.Duration
	idleOps := 0
	for i := 1; i <= n; i++ {
		pkt := parityPacket(rank, i)
		d := ref.Next(pkt.Kind == machine.PacketData)
		var want []sent
		var wantTorn []int
		if !d.Crash && !d.Drop && !d.Reset {
			want = append(want, sent{seq: i, corrupt: d.Corrupt})
			if d.Dup {
				want = append(want, sent{seq: i, corrupt: d.Corrupt})
			}
		}
		if d.Reset {
			wantTorn = []int{i}
		}
		if d.Flush {
			want = append(want, held)
		} else if d.Hold {
			held, want = want[0], nil
		}
		for _, side := range []struct {
			name string
			got  opOutcome
		}{{"sim", sim[i]}, {"socket", sock[i]}} {
			if side.got.crash != d.Crash {
				t.Errorf("op %d %s: crash %v, stream says %v", i, side.name, side.got.crash, d.Crash)
			}
			if !sentEqual(side.got.out, want) {
				t.Errorf("op %d %s: sent %v, stream decision %+v wants %v", i, side.name, side.got.out, d, want)
			}
			if d.Stall > 0 && side.got.elapsed < d.Stall {
				t.Errorf("op %d %s: stalled %v, stream says %v", i, side.name, side.got.elapsed, d.Stall)
			}
		}
		if len(sock[i].torn) != len(wantTorn) || (len(wantTorn) == 1 && sock[i].torn[0] != i) {
			t.Errorf("op %d socket: torn %v, stream decision %+v", i, sock[i].torn, d)
		}
		if d.Stall == 0 {
			simIdle += sim[i].elapsed
			sockIdle += sock[i].elapsed
			idleOps++
		}
		for name, on := range map[string]bool{"crash": d.Crash, "stall": d.Stall > 0, "drop": d.Drop,
			"reset": d.Reset, "corrupt": d.Corrupt, "dup": d.Dup, "hold": d.Hold} {
			if on {
				seen[name] = true
				if name != "crash" {
					lastFault = i
				}
			}
		}
	}
	// Unstalled operations must not sleep: on average they run far below
	// one stall delay (a bound loose enough for scheduler noise).
	if limit := time.Duration(idleOps) * stall / 4; simIdle > limit || sockIdle > limit {
		t.Errorf("unstalled ops took sim %v, socket %v in total (limit %v)", simIdle, sockIdle, limit)
	}
	for _, class := range []string{"crash", "stall", "drop", "reset", "corrupt", "dup", "hold"} {
		if !seen[class] {
			t.Errorf("plan never exercised %s", class)
		}
	}
	if lastFault > n/2 {
		t.Errorf("last fault at op %d of %d: the MaxFaults budget was not exhausted early enough to check the tail", lastFault, n)
	}
}
