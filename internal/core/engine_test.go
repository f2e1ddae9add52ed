package core_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/core"
	"gpbft/internal/types"
)

func fastOpts(nodes int) gpbft.Options {
	o := gpbft.DefaultOptions(gpbft.GPBFT, nodes)
	o.Network = gpbft.NetworkProfile{
		LatencyBase:   time.Millisecond,
		LatencyJitter: 500 * time.Microsecond,
		ProcTime:      100 * time.Microsecond,
		SendTime:      20 * time.Microsecond,
	}
	o.ViewChangeTimeout = 500 * time.Millisecond
	return o
}

// TestForcedEraSwitchRotates: with ForceEraSwitch the era advances
// every T even though membership never changes, and the system keeps
// committing transactions across the switches.
func TestForcedEraSwitchRotates(t *testing.T) {
	o := fastOpts(5)
	o.ForceEraSwitch = true
	o.EraPeriod = time.Second
	o.SwitchPeriod = 100 * time.Millisecond
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	// Endorsers must keep reporting to stay authenticated.
	for i := 0; i < 5; i++ {
		c.ScheduleReports(i, 50*time.Millisecond, 250*time.Millisecond, 40)
	}
	for k := 0; k < 20; k++ {
		c.SubmitNodeTx(time.Duration(100+k*400)*time.Millisecond, k%5, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(time.Minute)

	chain := c.Node(0).App.Chain()
	if chain.Era() < 3 {
		t.Fatalf("era %d after ~8s of 1s forced switches", chain.Era())
	}
	if got := c.Metrics().CommittedCount(); got != 20 {
		t.Fatalf("committed %d of 20 across era switches", got)
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
	// Committee membership unchanged by empty switches.
	if len(chain.Endorsers()) != 5 {
		t.Fatalf("committee size %d", len(chain.Endorsers()))
	}
}

// TestEraAdvancesWithoutAProposal: an era switch is nobody's proposal,
// so no primary can withhold it. With forced switches, seven endorsers
// and location reports keeping blocks coming, the era advances at the
// first block stamped past the era's end — within EraPeriod plus two
// view-change timeouts — and no view change is needed.
func TestEraAdvancesWithoutAProposal(t *testing.T) {
	o := fastOpts(7)
	o.ForceEraSwitch = true
	o.EraPeriod = 2 * time.Second
	o.SwitchPeriod = 100 * time.Millisecond
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		c.ScheduleReports(i, 50*time.Millisecond, 250*time.Millisecond, 40)
	}
	c.Run(10 * time.Millisecond)
	deadline := o.EraPeriod + 2*c.CoreEngine(0).Inner().Timeout()

	views := uint64(0)
	for c.Now() < deadline && c.Node(0).App.Chain().Era() == 0 {
		c.Run(c.Now() + 10*time.Millisecond)
		for i := 0; i < 7; i++ {
			if in := c.CoreEngine(i).Inner(); in != nil {
				views = max(views, in.View())
			}
		}
	}
	for i := 0; i < 7; i++ {
		if era := c.Node(i).App.Chain().Era(); era != 1 {
			t.Fatalf("node %d at era %d %v into the run, want 1 (deadline %v)", i, era, c.Now(), deadline)
		}
	}
	if views != 0 {
		t.Fatalf("the era advanced only after a view change (view %d)", views)
	}
	if h := c.Node(0).App.Chain().Height(); h < 2 {
		t.Fatalf("chain at height %d", h)
	}
}

// TestRogueConfigTxNeverCommits: the era switch carries no transaction,
// so a configuration transaction — the retired kind, here one claiming
// to add a node that never qualified — is refused at the door and in
// blocks alike. It must never reach the chain or move the era.
func TestRogueConfigTxNeverCommits(t *testing.T) {
	o := fastOpts(5)
	o.DisableEraSwitch = false
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{
		Type:    types.TxType(1), // the retired configuration kind
		Nonce:   999,
		Payload: []byte("add " + c.Address(4).String()),
		Geo: types.GeoInfo{
			Location:  c.Position(0),
			Timestamp: o.Epoch.Add(time.Second),
		},
	}
	// Signed by an endorser, which the old kind required.
	txKey := c.Node(0).Key
	tx.Sign(txKey)
	c.SubmitTx(10*time.Millisecond, 0, tx)
	// Honest traffic continues around it.
	for k := 0; k < 10; k++ {
		c.SubmitNodeTx(time.Duration(20+k*100)*time.Millisecond, k%5, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(30 * time.Second)

	chain := c.Node(0).App.Chain()
	for _, b := range chain.Blocks() {
		for i := range b.Txs {
			if b.Txs[i].ID() == tx.ID() {
				t.Fatal("rogue config transaction was committed")
			}
		}
	}
	if chain.Era() != 0 {
		t.Fatalf("era moved to %d on a rogue config", chain.Era())
	}
	// The honest stream was unaffected.
	if got := c.Metrics().CommittedCount(); got < 10 {
		t.Fatalf("committed %d of 11 (rogue may stay pending)", got)
	}
}

// TestCandidateSyncPagination: a candidate elected after the chain has
// grown past MaxSyncBlocks pulls the chain in multiple sync rounds.
func TestCandidateSyncPagination(t *testing.T) {
	if testing.Short() {
		t.Skip("long chain sync in -short mode")
	}
	o := fastOpts(5)
	o.GenesisEndorsers = 4
	o.MaxEndorsers = 8
	o.BatchSize = 1 // one tx per block -> tall chain
	o.EraPeriod = 4 * time.Second
	o.QualificationWindow = 2 * time.Second
	o.MinReports = 3
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	// Grow the chain beyond one sync page (MaxSyncBlocks = 256): the
	// candidate's periodic reports plus a steady data stream, paced so
	// the pool never saturates (elections need fresh committed reports).
	for i := 0; i < 5; i++ {
		c.ScheduleReports(i, 50*time.Millisecond, 200*time.Millisecond, 60)
	}
	for k := 0; k < 280; k++ {
		c.SubmitNodeTx(time.Duration(60+k*40)*time.Millisecond, k%4, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(2 * time.Minute)

	ce := c.CoreEngine(4)
	if !ce.IsEndorser() {
		t.Fatalf("candidate not admitted (era=%d, endorser chain h=%d, cand h=%d)",
			ce.Era(), c.Node(0).App.Chain().Height(), c.Node(4).App.Chain().Height())
	}
	endorserH := c.Node(0).App.Chain().Height()
	if endorserH <= uint64(core.MaxSyncBlocks) {
		t.Fatalf("chain only %d high; pagination not exercised", endorserH)
	}
	if got := c.Node(4).App.Chain().Height(); got < endorserH-5 {
		t.Fatalf("candidate chain %d far behind endorsers at %d", got, endorserH)
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestLossyNetworkStillCommits: 5% message loss; PBFT's quorum slack
// and view-change fallback keep the system live.
func TestLossyNetworkStillCommits(t *testing.T) {
	o := fastOpts(7)
	o.Network.DropRate = 0.05
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		c.SubmitNodeTx(time.Duration(10+k*200)*time.Millisecond, k%7, []byte{byte(k)}, 1)
	}
	c.RunUntilIdle(2 * time.Minute)
	if got := c.Metrics().CommittedCount(); got < 8 {
		t.Fatalf("committed %d of 10 under 5%% loss", got)
	}
	if _, err := c.VerifyAgreement(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverRelaysToCommittee: a candidate (observer) node's own
// submissions reach the committee and commit.
func TestObserverRelaysToCommittee(t *testing.T) {
	o := fastOpts(8)
	o.MaxEndorsers = 4
	o.DisableEraSwitch = true
	c, err := gpbft.NewCluster(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ { // observers submit their own txs
		c.SubmitNodeTx(time.Duration(10+i)*time.Millisecond, i, []byte{byte(i)}, 1)
	}
	c.RunUntilIdle(30 * time.Second)
	if got := c.Metrics().CommittedCount(); got != 4 {
		t.Fatalf("committed %d of 4 observer txs", got)
	}
}

// TestDisableEraSwitchMustMatchTheChain: whether eras switch is the
// genesis era rule's decision, so an engine told to freeze the committee
// on a chain whose genesis switches eras is refused, and accepted on a
// frozen chain.
func TestDisableEraSwitchMustMatchTheChain(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		o := fastOpts(4)
		o.DisableEraSwitch = frozen
		c, err := gpbft.NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		n := c.Node(0)
		_, err = core.New(core.Config{Chain: n.App.Chain(), Key: n.Key, App: n.App, DisableEraSwitch: true})
		if (err == nil) != frozen {
			t.Fatalf("frozen genesis %v: core.New with DisableEraSwitch returned %v", frozen, err)
		}
	}
}
