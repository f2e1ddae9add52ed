package gpbft_test

import (
	"testing"
	"time"

	"gpbft"
)

// TestEquivocatingPrimaryDeposed: an equivocating leader splits the
// committee between two conflicting proposals; no conflicting block
// may commit, a view change must depose it, and the honest majority
// must resume committing.
func TestEquivocatingPrimaryDeposed(t *testing.T) {
	o := fastOpts(gpbft.PBFT, 7)
	o.ViewChangeTimeout = 400 * time.Millisecond
	// We don't know which index leads view 0 (address order is
	// hash-derived), so make EVERY node an equivocator-when-leading
	// except... that would break everything. Instead: find the leader
	// by building an honest throwaway cluster first.
	probe, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	leaderIdx := -1
	probe.RunUntilIdle(time.Millisecond)
	for i := 0; i < 7; i++ {
		if probe.CoreEngine(i).Inner().IsPrimary() {
			leaderIdx = i
			break
		}
	}
	if leaderIdx < 0 {
		t.Fatal("no leader found")
	}

	o.Byzantine = map[int]gpbft.Fault{leaderIdx: gpbft.FaultEquivocate}
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		c.SubmitNodeTx(time.Duration(10+k*150)*time.Millisecond, (leaderIdx+1+k)%7, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(2 * time.Minute)

	// SAFETY: all nodes agree (the equivocator's own chain included —
	// its inner engine is honest, only its wire behaviour lies).
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatalf("safety violated: %v", err)
	}
	// LIVENESS: the honest majority eventually committed the load.
	if got := c.Metrics().CommittedCount(); got < 8 {
		t.Fatalf("committed %d of 8 under an equivocating leader", got)
	}
	// The equivocator was deposed: some honest node moved past view 0.
	moved := false
	for i := 0; i < 7; i++ {
		if i != leaderIdx && c.CoreEngine(i).Inner().View() > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("equivocating leader was never deposed")
	}
}

// TestVoteWithholdersTolerated: f vote-withholding endorsers cannot
// stall a committee of 3f+1.
func TestVoteWithholdersTolerated(t *testing.T) {
	o := fastOpts(gpbft.PBFT, 7) // f = 2
	o.Byzantine = map[int]gpbft.Fault{1: gpbft.FaultWithholdVotes, 2: gpbft.FaultWithholdVotes}
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		c.SubmitNodeTx(time.Duration(10+k*100)*time.Millisecond, k%7, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(time.Minute)
	if got := c.Metrics().CommittedCount(); got != 8 {
		t.Fatalf("committed %d of 8 with f vote withholders", got)
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestSilentEndorsersTolerated: f silent (joined-but-dead) members.
func TestSilentEndorsersTolerated(t *testing.T) {
	o := fastOpts(gpbft.PBFT, 7)
	o.ViewChangeTimeout = 400 * time.Millisecond
	o.Byzantine = map[int]gpbft.Fault{5: gpbft.FaultSilent, 6: gpbft.FaultSilent}
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		c.SubmitNodeTx(time.Duration(10+k*150)*time.Millisecond, k%5, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(2 * time.Minute)
	if got := c.Metrics().CommittedCount(); got != 6 {
		t.Fatalf("committed %d of 6 with f silent members", got)
	}
}

// TestGPBFTWithByzantineEndorser: the era layer also absorbs a
// Byzantine committee member.
func TestGPBFTWithByzantineEndorser(t *testing.T) {
	o := fastOpts(gpbft.GPBFT, 8)
	o.MaxEndorsers = 7
	o.DisableEraSwitch = true
	o.ViewChangeTimeout = 400 * time.Millisecond
	o.Byzantine = map[int]gpbft.Fault{3: gpbft.FaultWithholdVotes}
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		c.SubmitNodeTx(time.Duration(10+k*150)*time.Millisecond, k%8, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(2 * time.Minute)
	if got := c.Metrics().CommittedCount(); got != 8 {
		t.Fatalf("committed %d of 8", got)
	}
}
