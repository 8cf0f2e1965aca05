package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/parallel"
)

// TestBatchRecoveryComposition fires a crash plan during a coalesced
// multi-tenant ApplyBatch with the recovery supervisor armed. Every
// tenant's committed result must be bit-identical to a solo Apply on a
// crash-free session, and the recovery incident must be attributed once
// — to the batch that absorbed it — not once per coalesced column.
func TestBatchRecoveryComposition(t *testing.T) {
	a, so := testSetup(t, 2, 4, 1200)
	n := a.N

	clean, err := parallel.OpenSession(a, so)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()

	const tenants = 4
	rng := rand.New(rand.NewSource(1201))
	xs := make([][]float64, tenants)
	want := make([][]float64, tenants)
	for i := range xs {
		xs[i] = randVec(n, rng)
		res, err := clean.Apply(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float64(nil), res.Y...)
	}

	// One session, one batch: the generous latency window coalesces all
	// four tenants into a single flush, and the crash plan kills rank 1
	// mid-schedule inside that flush.
	crashed := so
	crashed.Machine = machine.RunConfig{
		Transport: fault.TransportRecoverable(fault.Plan{Seed: 7, Crash: map[int]int{1: 4}},
			fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout: 2 * time.Second,
	}
	crashed.Recovery = true
	pool, err := Open(a, Options{
		Session:  crashed,
		Sessions: 1,
		MaxCols:  tenants,
		MaxWait:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	var wg sync.WaitGroup
	got := make([]*Response, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := pool.Apply("tenant", xs[i])
			if err != nil {
				t.Errorf("tenant %d: %v", i, err)
				return
			}
			got[i] = resp
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i := range got {
		if !bitsEqual(got[i].Y, want[i]) {
			t.Errorf("tenant %d: recovered batch Y not bit-identical to crash-free solo Apply", i)
		}
	}

	st := pool.RecoveryStats()
	if st.RankDowns != 1 {
		t.Errorf("RankDowns = %d, want exactly 1: one crash, one incident, however many columns rode the batch", st.RankDowns)
	}
	if st.Relaunches != 1 || st.Rollbacks != 1 {
		t.Errorf("stats %+v: want exactly one relaunch and one rollback for the one incident", st)
	}
}

// TestFailedSessionQuarantined: a session whose batch failed must not
// rejoin the free list as it is. Without recovery a crash kills the
// session's machine, and before quarantine every later batch on it failed
// at once; the pool now retires it and reopens the slot, so with the
// crash spent (the plan's registry fires it once) the next request on the
// one-session pool succeeds.
func TestFailedSessionQuarantined(t *testing.T) {
	a, so := testSetup(t, 2, 4, 1300)
	so.Machine = machine.RunConfig{
		Transport: fault.TransportRecoverable(fault.Plan{Seed: 9, Crash: map[int]int{1: 4}},
			fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout: 300 * time.Millisecond,
	}
	pool, err := Open(a, Options{Session: so, Sessions: 1, MaxCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x := randVec(a.N, rand.New(rand.NewSource(1301)))
	if _, err := pool.Apply("t", x); err == nil {
		t.Fatal("the crashed batch succeeded without recovery")
	}
	resp, err := pool.Apply("t", x)
	if err != nil {
		t.Fatalf("request after the failed batch: %v", err)
	}
	clean, err := parallel.OpenSession(a, parallel.Options{Part: so.Part, B: so.B, Wiring: so.Wiring})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want, err := clean.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(resp.Y, want.Y) {
		t.Error("the reopened session's Y is not bit-identical to a crash-free Apply")
	}
}

// TestQuarantineKeepsRecoveryStats: the pool's recovery counters only
// grow. A session that absorbed a recovery incident and is then retired
// by quarantine — as a failed batch retires it — must leave its counts in
// Pool.RecoveryStats instead of taking them along.
func TestQuarantineKeepsRecoveryStats(t *testing.T) {
	a, so := testSetup(t, 2, 4, 1400)
	so.Machine = machine.RunConfig{
		Transport: fault.TransportRecoverable(fault.Plan{Seed: 7, Crash: map[int]int{1: 4}},
			fault.ReliableOptions{MaxAttempts: 1 << 20}),
		Timeout: 2 * time.Second,
	}
	so.Recovery = true
	pool, err := Open(a, Options{Session: so, Sessions: 1, MaxCols: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	x := randVec(a.N, rand.New(rand.NewSource(1401)))
	if _, err := pool.Apply("t", x); err != nil {
		t.Fatal(err)
	}
	before := pool.RecoveryStats()
	if before.Relaunches == 0 || before.RankDowns == 0 {
		t.Fatalf("stats %+v: the crash was not recovered", before)
	}

	// Retire the session the way the flush path does after a failed batch.
	sess := <-pool.free
	pool.free <- pool.quarantine(sess)
	if _, err := pool.Apply("t", x); err != nil {
		t.Fatalf("request after the quarantine: %v", err)
	}

	after := pool.RecoveryStats()
	counters := []struct {
		name          string
		before, after int64
	}{
		{"RankDowns", int64(before.RankDowns), int64(after.RankDowns)},
		{"Rollbacks", int64(before.Rollbacks), int64(after.Rollbacks)},
		{"Relaunches", int64(before.Relaunches), int64(after.Relaunches)},
		{"Epoch", before.Epoch, after.Epoch},
		{"Verifications", int64(before.Verifications), int64(after.Verifications)},
		{"Mismatches", int64(before.Mismatches), int64(after.Mismatches)},
		{"CheckpointWords", before.CheckpointWords, after.CheckpointWords},
		{"CheckpointNanos", before.CheckpointNanos, after.CheckpointNanos},
		{"RestoreNanos", before.RestoreNanos, after.RestoreNanos},
	}
	for _, c := range counters {
		if c.after < c.before {
			t.Errorf("%s fell from %d to %d across the quarantine", c.name, c.before, c.after)
		}
	}
}
