package core_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
)

// TestCountersOutliveTheEra: seven reporting endorsers switch era every
// 2 s on a steady trickle of transactions, in pairs close enough that a
// round often ends on one pending and the primary holds it. Each era runs a
// new PBFT instance; the node owns the counters, so a node's
// VotesVerified and ProposalsHeld never fall, each instance adds to what
// the ones before it counted, and the totals at the end are the sum of
// what each instance counted.
func TestCountersOutliveTheEra(t *testing.T) {
	const n, end = 7, 11 * time.Second
	o := gpbft.DefaultOptions(gpbft.GPBFT, n)
	o.Network = gpbft.LANProfile()
	o.ForceEraSwitch = true
	o.EraPeriod = 2 * time.Second
	o.Seed = 1
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c.ScheduleReports(i, 100*time.Millisecond, 500*time.Millisecond, int(end/(500*time.Millisecond)))
	}
	for at := 500 * time.Millisecond; at < end-time.Second; at += 150 * time.Millisecond {
		for k := time.Duration(0); k < 2; k++ {
			i := int(at/(150*time.Millisecond)+k) % n
			c.SubmitNodeTx(at+3*k*time.Millisecond, i, []byte{byte(at / time.Millisecond), byte(at / time.Millisecond >> 8), byte(k)}, 1)
		}
	}

	// Per node: the instance last seen, the totals when it was first
	// seen, and the sum of what each finished instance counted.
	type count struct{ verified, held uint64 }
	read := func(s runtime.SyncStats) count { return count{s.VotesVerified, s.ProposalsHeld} }
	inner := make([]*pbft.Engine, n)
	start, last, sum := make([]count, n), make([]count, n), make([]count, n)
	instances, counting, holding := make([]int, n), make([]int, n), 0
	finish := func(i int) {
		d := count{last[i].verified - start[i].verified, last[i].held - start[i].held}
		sum[i].verified += d.verified
		sum[i].held += d.held
		if d.verified > 0 {
			counting[i]++
		}
		if d.held > 0 {
			holding++
		}
	}
	var sample func(now time.Duration)
	sample = func(now time.Duration) {
		for i := 0; i < n; i++ {
			got := read(c.SyncStats(i))
			if got.verified < last[i].verified || got.held < last[i].held {
				t.Fatalf("node %d at %v: counters fell from %+v to %+v", i, now, last[i], got)
			}
			if e := c.CoreEngine(i).Inner(); e != inner[i] {
				finish(i)
				inner[i], start[i] = e, last[i]
				instances[i]++
			}
			last[i] = got
		}
		if now < end {
			c.Net().Schedule(now+time.Millisecond, sample)
		}
	}
	c.Net().Schedule(0, sample)
	c.Run(end)

	for i := 0; i < n; i++ {
		finish(i)
		total := read(c.SyncStats(i))
		if sum[i] != total {
			t.Errorf("node %d: instances counted %+v in all, the node reads %+v", i, sum[i], total)
		}
		if counting[i] < 2 {
			t.Errorf("node %d: %d of its %d instances verified votes, want at least 2", i, counting[i], instances[i])
		}
	}
	if holding < 2 {
		t.Errorf("%d instances held a proposal, want at least 2", holding)
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
}
