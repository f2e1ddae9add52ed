package gpbft_test

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// failoverRun is the outcome of one crashed-primary run.
type failoverRun struct {
	offered, committed int
	heights            []uint64 // live replicas only
	viewChanges        uint64   // the most any replica completed
}

// runFailover drives seven G-PBFT endorsers on the LAN profile through a
// primary crash: one warm-up transaction at 0.5 s, then 3 000
// transactions at 100 tx/s from t = 1 s, transaction k submitted through
// node k mod 7, or through the next node once that node has crashed. The
// primary crashes at 11 s and the run ends at 36 s. A zero timeout is
// the measured default.
func runFailover(t *testing.T, timeout time.Duration) failoverRun {
	t.Helper()
	o := gpbft.DefaultOptions(gpbft.GPBFT, 7)
	o.Network = gpbft.LANProfile()
	o.DisableEraSwitch = true
	o.Seed = 1
	o.ViewChangeTimeout = timeout
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	const n, total = 7, 3000
	crashed := -1
	offer := func(from int, at time.Duration, payload []byte) {
		tx := c.NewNodeTx(from, at, payload, 1)
		c.Net().Schedule(at, func(now time.Duration) {
			via := from
			if via == crashed {
				via = (via + 1) % n
			}
			c.Metrics().RecordSubmit(tx.ID(), now)
			_ = c.Node(via).Submit(now, tx)
		})
	}
	offer(0, 500*time.Millisecond, []byte{0xFF})
	for k := 0; k < total; k++ {
		var p [4]byte
		binary.LittleEndian.PutUint32(p[:], uint32(k))
		offer(k%n, time.Second+time.Duration(k)*10*time.Millisecond, p[:])
	}
	c.Net().Schedule(11*time.Second, func(time.Duration) {
		primary := c.CoreEngine(0).Inner().Primary()
		for i := 0; i < n; i++ {
			if c.Address(i) == primary {
				crashed = i
				c.Net().Crash(primary)
			}
		}
	})
	c.Run(36 * time.Second)
	if crashed < 0 {
		t.Fatal("no primary crashed")
	}
	r := failoverRun{offered: total + 1, committed: c.Metrics().CommittedCount()}
	for i := 0; i < n; i++ {
		if i == crashed {
			continue
		}
		if err := c.Node(i).CommitErr; err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		r.heights = append(r.heights, c.Node(i).App.Chain().Height())
		if vc := c.CoreEngine(i).Inner().CompletedViewChanges(); vc > r.viewChanges {
			r.viewChanges = vc
		}
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestViewChangeLeavesNoReplicaBehind crashes the primary of seven
// endorsers under steady load at timeouts around 500 ms, where a view
// change can strand replicas a few blocks behind the rest with no quorum
// left among those that kept up: every live replica must end at one
// height, every offered transaction must commit, and the crash may cost
// at most two view changes. Zero is the measured default.
func TestViewChangeLeavesNoReplicaBehind(t *testing.T) {
	for _, timeout := range []time.Duration{0, 450 * time.Millisecond, 490 * time.Millisecond, 500 * time.Millisecond, time.Second} {
		t.Run(fmt.Sprintf("timeout=%v", timeout), func(t *testing.T) {
			r := runFailover(t, timeout)
			for _, h := range r.heights[1:] {
				if h != r.heights[0] {
					t.Errorf("live replicas end at heights %v, want one height", r.heights)
					break
				}
			}
			if r.committed != r.offered {
				t.Errorf("committed %d of %d offered transactions", r.committed, r.offered)
			}
			if r.viewChanges > 2 {
				t.Errorf("%d view changes, want at most 2", r.viewChanges)
			}
			t.Logf("heights %v, %d view changes", r.heights, r.viewChanges)
		})
	}
}

// TestReplicaLeftBehindCatchesUpAfterViewChange cuts two of seven
// endorsers off while the other five commit three blocks, crashes the
// primary, and heals the cut. The four survivors that kept up cannot form
// a quorum without a laggard, so they commit nothing the laggards could
// overhear: the new primary's first proposal is the only sign that the
// laggards are behind, and it must be enough for them to catch up within
// the one view change.
func TestReplicaLeftBehindCatchesUpAfterViewChange(t *testing.T) {
	const n = 7
	o := gpbft.DefaultOptions(gpbft.GPBFT, n)
	o.Network = gpbft.LANProfile()
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(10 * time.Millisecond) // every engine has run Init
	index := func(v uint64) int {
		p := c.CoreEngine(0).Committee().Primary(v)
		for i := 0; i < n; i++ {
			if c.Address(i) == p {
				return i
			}
		}
		t.Fatalf("primary of view %d is not a node", v)
		return -1
	}
	// The laggards lead no view the failover reaches, and every
	// transaction enters through a node that is never cut off or crashed.
	primary, laggards, via := index(0), []int{index(3), index(4)}, index(1)
	total := 0
	submit := func(from time.Duration, count int) {
		for k := 0; k < count; k++ {
			c.SubmitNodeTx(from+time.Duration(k)*10*time.Millisecond, via, []byte{byte(total), byte(total >> 8)}, 1)
			total++
		}
	}
	cut := func(heal bool) {
		for _, l := range laggards {
			for i := 0; i < n; i++ {
				switch {
				case i == l:
				case heal:
					c.Net().Heal(c.Address(l), c.Address(i))
				default:
					c.Net().Partition(c.Address(l), c.Address(i))
				}
			}
		}
	}
	submit(time.Second, 40)
	c.Net().Schedule(1500*time.Millisecond, func(time.Duration) { cut(false) })
	submit(1600*time.Millisecond, 3) // committed by the five alone
	c.Net().Schedule(2*time.Second, func(time.Duration) { c.Net().Crash(c.Address(primary)) })
	c.Net().Schedule(2100*time.Millisecond, func(time.Duration) { cut(true) })
	submit(2200*time.Millisecond, 100)
	c.Run(20 * time.Second)

	var heights []uint64
	views := uint64(0)
	for i := 0; i < n; i++ {
		if i == primary {
			continue
		}
		heights = append(heights, c.Node(i).App.Chain().Height())
		views = max(views, c.CoreEngine(i).Inner().CompletedViewChanges())
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	for _, h := range heights[1:] {
		if h != heights[0] {
			t.Fatalf("live replicas end at heights %v, want one height", heights)
		}
	}
	if got := c.Metrics().CommittedCount(); got != total {
		t.Fatalf("committed %d of %d", got, total)
	}
	if views != 1 {
		t.Fatalf("%d view changes, want 1", views)
	}
}

// TestPBFTBaselineLaggardCatchesUp cuts one of four PBFT replicas off
// from the other three for three seconds while they commit. The baseline
// is the era layer with its committee frozen, so the healed replica pulls
// the blocks it missed through block sync and ends at the committee's
// height, as a G-PBFT endorser does.
func TestPBFTBaselineLaggardCatchesUp(t *testing.T) {
	const n, laggard = 4, 3
	c, err := gpbft.NewCluster(fastOpts(gpbft.PBFT, n))
	if err != nil {
		t.Fatal(err)
	}
	cut := func(heal bool) {
		for i := 0; i < n; i++ {
			switch {
			case i == laggard:
			case heal:
				c.Net().Heal(c.Address(laggard), c.Address(i))
			default:
				c.Net().Partition(c.Address(laggard), c.Address(i))
			}
		}
	}
	c.Net().Schedule(500*time.Millisecond, func(time.Duration) { cut(false) })
	c.Net().Schedule(3500*time.Millisecond, func(time.Duration) { cut(true) })
	const total = 60
	for k := 0; k < total; k++ {
		c.SubmitNodeTx(time.Duration(k+1)*100*time.Millisecond, k%laggard, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(20 * time.Second)

	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	head, behind := c.Node(0).App.Chain().Height(), c.Node(laggard).App.Chain().Height()
	if behind != head {
		t.Fatalf("healed replica at height %d, the committee at %d", behind, head)
	}
	if got := c.Metrics().CommittedCount(); got != total {
		t.Fatalf("committed %d of %d", got, total)
	}
}

// eraCrashGap drives seven G-PBFT endorsers on the LAN profile with a
// forced era switch every 10 s and one transaction every 100 ms, each
// through the next live node. The primary of the era that begins near
// 20 s crashes into after the first node enters that era; the result is
// the longest time between two heights on a live node.
func eraCrashGap(t *testing.T, into time.Duration) time.Duration {
	t.Helper()
	const n, end = 7, 36 * time.Second
	o := gpbft.DefaultOptions(gpbft.GPBFT, n)
	o.Network = gpbft.LANProfile()
	o.ForceEraSwitch = true
	o.EraPeriod = 10 * time.Second
	o.Seed = 1
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	crashed := -1
	crash := func(time.Duration) {
		primary := c.CoreEngine(0).Inner().Primary()
		for i := 0; i < n; i++ {
			if c.Address(i) == primary {
				crashed = i
				c.Net().Crash(primary)
			}
		}
	}
	last := make([]time.Duration, n)
	gaps := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		node, observe, switched := c.Node(i), c.Node(i).OnCommit, c.Node(i).OnEraSwitch
		node.OnCommit = func(now consensus.Time, b *types.Block) {
			observe(now, b)
			if last[i] > 0 {
				gaps[i] = max(gaps[i], now-last[i])
			}
			last[i] = now
		}
		node.OnEraSwitch = func(now consensus.Time, era uint64, com []gcrypto.Address) {
			if switched != nil {
				switched(now, era, com)
			}
			if now > 15*time.Second && crashed < 0 {
				crashed = n // scheduled
				c.Net().Schedule(now+into, crash)
			}
		}
	}
	for at := time.Second; at < end-2*time.Second; at += 100 * time.Millisecond {
		from := int(at/(100*time.Millisecond)) % n
		tx := c.NewNodeTx(from, at, []byte{byte(at / time.Millisecond), byte(at / time.Millisecond >> 8)}, 1)
		c.Net().Schedule(at, func(now time.Duration) {
			via := from
			if via == crashed {
				via = (via + 1) % n
			}
			c.Metrics().RecordSubmit(tx.ID(), now)
			_ = c.Node(via).Submit(now, tx)
		})
	}
	c.Run(end)
	if crashed < 0 || crashed == n {
		t.Fatal("no primary crashed")
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	longest := time.Duration(0)
	for i := 0; i < n; i++ {
		if i != crashed {
			longest = max(longest, gaps[i])
		}
	}
	return longest
}

// TestEarlyEraCrashCostsNoMoreThanMidEra: the failure detector outlives
// the era, so a primary that crashes half a second into its era is
// replaced on the rounds the node timed in the era before, not on the
// initial timeout a new history would give it. Its outage may cost at
// most twice what a crash five seconds into the era does.
func TestEarlyEraCrashCostsNoMoreThanMidEra(t *testing.T) {
	early, mid := eraCrashGap(t, 500*time.Millisecond), eraCrashGap(t, 5*time.Second)
	t.Logf("longest gap between heights: %v at a crash 0.5 s into the era, %v at 5 s", early, mid)
	if early > 2*mid {
		t.Fatalf("a crash 0.5 s into the era stalls heights for %v, more than twice the %v of one 5 s into it", early, mid)
	}
}
