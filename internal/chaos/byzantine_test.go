package chaos_test

import (
	"testing"
	"time"

	"gpbft/internal/byzantine"
	"gpbft/internal/chaos"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

// byzStep drives one 200ms slice of the accountability schedule: every
// committee member files a location report (so the honest ones keep
// re-qualifying at era elections), node 0 submits consensus traffic
// (so votes — and doubled votes — keep flowing), and the Sybil pair
// files its simultaneous same-cell reports through two different
// endorsers.
func byzStep(c *chaos.Cluster, pair *byzantine.SybilPair, step int) {
	for i := 0; i < 7; i++ {
		c.SubmitReport(i)
	}
	c.Submit(0, []byte{byte(step), byte(step >> 8)})
	a, b := pair.Reports(c.Epoch().Add(c.Now()))
	c.SubmitRawTx(0, a)
	c.SubmitRawTx(2, b)
	c.RunFor(200 * time.Millisecond)
}

func isEndorser(c *chaos.Cluster, node int, addr gcrypto.Address) bool {
	for _, e := range c.Chain(node).Endorsers() {
		if e.Address == addr {
			return true
		}
	}
	return false
}

// TestByzantineAccountabilityExpulsion is the end-to-end acceptance run
// for the misbehavior pipeline: an n=7 committee with one double-voting
// endorser plus an external Sybil pair must (1) keep safety — no fork,
// no honest equivocation; (2) commit self-verifying evidence convicting
// all three identities; and (3) expel the double-voter from every
// committee within two era switches of its conviction, refusing
// readmission thereafter.
func TestByzantineAccountabilityExpulsion(t *testing.T) {
	c, err := chaos.New(chaos.Options{
		Nodes:           7,
		Seed:            99,
		EnableEraSwitch: true,
		Faults:          map[int]byzantine.Fault{1: byzantine.FaultDoubleVote},
	})
	if err != nil {
		t.Fatal(err)
	}
	dv := c.Address(1)
	pair := &byzantine.SybilPair{
		A: gcrypto.DeterministicKeyPair(100),
		B: gcrypto.DeterministicKeyPair(101),
		// A corner cell of the deployment area no committee member
		// occupies, so only the pair ever collides there.
		Cell: geo.Point{Lng: 114.1706, Lat: 22.3094},
	}
	sybA, sybB := pair.Addresses()

	// Phase 1: drive load until all three offenders are convicted by
	// committed evidence on node 0's chain.
	convicted := false
	for step := 0; step < 150 && !convicted; step++ {
		byzStep(c, pair, step)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ch := c.Chain(0)
		convicted = ch.IsBanned(dv) && ch.IsBanned(sybA) && ch.IsBanned(sybB)
	}
	if !convicted {
		ch := c.Chain(0)
		t.Fatalf("offenders not all convicted: dv=%v sybilA=%v sybilB=%v (evidence=%d, era=%d, height=%d)",
			ch.IsBanned(dv), ch.IsBanned(sybA), ch.IsBanned(sybB),
			ch.EvidenceCount(), ch.Era(), ch.Height())
	}

	// Phase 2: K=2 more era switches must complete, after which the
	// double-voter may sit in no committee.
	target := c.Chain(0).Era() + 2
	for step := 0; step < 300 && c.Chain(0).Era() < target; step++ {
		byzStep(c, pair, step)
	}
	if got := c.Chain(0).Era(); got < target {
		t.Fatalf("era stalled at %d, want >= %d — expulsion never took effect", got, target)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after expulsion: %v", err)
	}

	for i := 0; i < 7; i++ {
		ch := c.Chain(i)
		if !ch.IsBanned(dv) || !ch.IsBanned(sybA) || !ch.IsBanned(sybB) {
			t.Fatalf("node %d blacklist diverged: dv=%v sybilA=%v sybilB=%v",
				i, ch.IsBanned(dv), ch.IsBanned(sybA), ch.IsBanned(sybB))
		}
		if ch.EvidenceCount() == 0 {
			t.Fatalf("node %d has no committed evidence", i)
		}
		for _, bad := range []gcrypto.Address{dv, sybA, sybB} {
			if isEndorser(c, i, bad) {
				t.Fatalf("node %d still lists convicted %s as endorser in era %d",
					i, bad.Short(), ch.Era())
			}
		}
	}
}

// TestByzantineAccountabilityAblation re-runs the same schedule with
// Policy.DisableExpulsion set: evidence must still be detected and
// committed (the ledger keeps the conviction), but enforcement is off,
// so the double-voter keeps its committee seat across era switches.
// This isolates the enforcement layer's contribution.
func TestByzantineAccountabilityAblation(t *testing.T) {
	c, err := chaos.New(chaos.Options{
		Nodes:            7,
		Seed:             99,
		EnableEraSwitch:  true,
		Faults:           map[int]byzantine.Fault{1: byzantine.FaultDoubleVote},
		DisableExpulsion: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dv := c.Address(1)
	pair := &byzantine.SybilPair{
		A:    gcrypto.DeterministicKeyPair(100),
		B:    gcrypto.DeterministicKeyPair(101),
		Cell: geo.Point{Lng: 114.1706, Lat: 22.3094},
	}

	convictedAt := uint64(0)
	for step := 0; step < 150; step++ {
		byzStep(c, pair, step)
		if c.Chain(0).IsBanned(dv) {
			convictedAt = c.Chain(0).Era()
			break
		}
	}
	if !c.Chain(0).IsBanned(dv) {
		t.Fatal("evidence pipeline disabled too: double-voter never convicted")
	}

	// Two further era switches with enforcement off: the convicted
	// endorser must still be seated.
	target := convictedAt + 2
	for step := 0; step < 300 && c.Chain(0).Era() < target; step++ {
		byzStep(c, pair, step)
	}
	if got := c.Chain(0).Era(); got < target {
		t.Fatalf("era stalled at %d, want >= %d", got, target)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("ablation run lost safety: %v", err)
	}
	if !isEndorser(c, 0, dv) {
		t.Fatal("DisableExpulsion set, but the convicted endorser was expelled anyway")
	}
}
