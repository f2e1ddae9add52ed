package ledger

import (
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

// eraGenesis is testGenesis with n endorsers under the given era rule,
// a 10 s era, a 250 ms switch pause and a 5 s qualification window.
func eraGenesis(t *testing.T, n int, rule EraRule) *Genesis {
	g := testGenesis(t, n)
	g.Policy.Eras = rule
	g.Policy.EraPeriod = 10 * time.Second
	g.Policy.SwitchPeriod = 250 * time.Millisecond
	g.Policy.QualificationWindow = 5 * time.Second
	return g
}

// spotOf is where testGenesis places endorser i; candidates sit beside.
func spotOf(i int) geo.Point { return geo.Point{Lng: 114.1 + float64(i)*0.001, Lat: 22.3} }

// blockAt builds the head's child stamped at, proposed by endorser 0.
func blockAt(c *Chain, at time.Time, txs []types.Transaction) *types.Block {
	head := c.Head()
	return types.NewBlock(types.BlockHeader{
		Height:    head.Header.Height + 1,
		Era:       c.Era(),
		Seq:       head.Header.Height + 1,
		PrevHash:  head.Hash(),
		Proposer:  gcrypto.DeterministicKeyPair(0).Address(),
		Timestamp: at,
	}, txs)
}

// locationReport is a signed report from key i at its spot, stamped at.
func locationReport(i int, at time.Time) types.Transaction {
	tx := types.Transaction{
		Type: types.TxLocationReport,
		Geo:  types.GeoInfo{Location: spotOf(i), Timestamp: at},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(i))
	return tx
}

// reportEverySecond commits one block a second for seconds seconds
// after genesis, each carrying a report from every listed key.
func reportEverySecond(t *testing.T, c *Chain, seconds int, keys ...int) {
	t.Helper()
	for s := 1; s <= seconds; s++ {
		at := c.Genesis().Timestamp.Add(time.Duration(s) * time.Second)
		var txs []types.Transaction
		for _, i := range keys {
			txs = append(txs, locationReport(i, at))
		}
		if err := c.AddBlock(blockAt(c, at, txs)); err != nil {
			t.Fatalf("block at +%ds: %v", s, err)
		}
	}
}

// TestBoundaryBlockAppliesElection: under ErasElect the first block
// stamped at the era's end runs Algorithm 1 over the state it extends
// and applies the result — endorser 3 stopped reporting and leaves,
// candidate 50 stayed put long enough and joins. Blocks before it
// change nothing, and the next boundary is one era period plus the
// switch pause on.
func TestBoundaryBlockAppliesElection(t *testing.T) {
	c, err := NewChain(eraGenesis(t, 4, ErasElect))
	if err != nil {
		t.Fatal(err)
	}
	reportEverySecond(t, c, 9, 0, 1, 2, 50)
	if c.Era() != 0 || len(c.Endorsers()) != 4 {
		t.Fatalf("before the boundary: era %d, %d endorsers", c.Era(), len(c.Endorsers()))
	}
	g := c.Genesis().Timestamp
	boundary := blockAt(c, g.Add(10*time.Second), nil)
	if !c.CrossesBoundary(boundary) {
		t.Fatal("a block stamped at the era's end does not cross its boundary")
	}
	if err := c.AddBlock(boundary); err != nil {
		t.Fatal(err)
	}
	if c.Era() != 1 {
		t.Fatalf("era %d after the boundary block, want 1", c.Era())
	}
	if c.IsEndorser(gcrypto.DeterministicKeyPair(3).Address()) {
		t.Error("the endorser that stopped reporting is still a member")
	}
	if !c.IsEndorser(gcrypto.DeterministicKeyPair(50).Address()) {
		t.Error("the qualified candidate was not admitted")
	}
	if n := len(c.Endorsers()); n != 4 {
		t.Fatalf("committee size %d, want 4", n)
	}
	next := g.Add(20*time.Second + 250*time.Millisecond)
	if c.CrossesBoundary(blockAt(c, next.Add(-time.Nanosecond), nil)) || !c.CrossesBoundary(blockAt(c, next, nil)) {
		t.Fatalf("the next boundary is not at %v", next)
	}
}

// TestConfigTxRespectsBlacklistAndMax: the committee change a boundary
// block applies keeps a blacklisted candidate out and stops at the
// policy's cap — three resident candidates, one banned, and room for
// one more under a cap of five.
func TestConfigTxRespectsBlacklistAndMax(t *testing.T) {
	g := eraGenesis(t, 4, ErasElect)
	banned := gcrypto.DeterministicKeyPair(60)
	g.Policy.Blacklist = []gcrypto.Address{banned.Address()}
	g.Policy.MaxEndorsers = 5
	c, err := NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	reportEverySecond(t, c, 9, 0, 1, 2, 3, 60, 61, 62)
	if err := c.AddBlock(blockAt(c, c.Genesis().Timestamp.Add(10*time.Second), nil)); err != nil {
		t.Fatal(err)
	}
	if c.Era() != 1 {
		t.Fatalf("era %d after the boundary block, want 1", c.Era())
	}
	if c.IsEndorser(banned.Address()) {
		t.Error("blacklisted node admitted")
	}
	if got := len(c.Endorsers()); got != 5 {
		t.Errorf("committee size %d, want capped at 5", got)
	}
}

// TestForcedBoundarySwitchesUnchangedCommittee: with nothing for
// Algorithm 1 to change, ErasForced still switches at the boundary,
// ErasElect does not (its next pass is one era period on), and
// ErasFrozen has no boundary at all.
func TestForcedBoundarySwitchesUnchangedCommittee(t *testing.T) {
	for _, tc := range []struct {
		rule    EraRule
		wantEra uint64
	}{{ErasForced, 1}, {ErasElect, 0}, {ErasFrozen, 0}} {
		c, err := NewChain(eraGenesis(t, 4, tc.rule))
		if err != nil {
			t.Fatal(err)
		}
		reportEverySecond(t, c, 12, 0, 1, 2, 3)
		if c.Era() != tc.wantEra || len(c.Endorsers()) != 4 {
			t.Fatalf("rule %d: era %d with %d endorsers, want era %d with 4", tc.rule, c.Era(), len(c.Endorsers()), tc.wantEra)
		}
		late := blockAt(c, c.Genesis().Timestamp.Add(time.Hour), nil)
		if c.CrossesBoundary(late) != (tc.rule != ErasFrozen) {
			t.Fatalf("rule %d: a block an hour on crosses the boundary: %v", tc.rule, c.CrossesBoundary(late))
		}
	}
}

// TestRetiredConfigTxRefused: a transaction of the retired configuration
// kind, even one signed by an endorser, is refused in a block.
func TestRetiredConfigTxRefused(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	tx := types.Transaction{
		Type:    types.TxType(1),
		Payload: []byte{0},
		Geo:     types.GeoInfo{Location: fixedSpot, Timestamp: tableEpoch},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(0))
	if err := c.AddBlock(nextBlock(c, []types.Transaction{tx}, 0)); !errors.Is(err, ErrTxInvalid) {
		t.Fatalf("block with a retired-kind transaction: %v, want ErrTxInvalid", err)
	}
	if err := tx.Verify(); !errors.Is(err, types.ErrTxRetired) {
		t.Fatalf("verify: %v, want types.ErrTxRetired", err)
	}
}

// TestBlockTimeNeverRunsBackwards: a block stamped 1 020 h before its
// parent is refused. Accepted, it would set its proposer's geographic
// timer to 1 010 h at the reset meant to zero it, and a proposer that
// backdated would never lose its place in the rotation. An honest child,
// stamped no earlier than its parent, resets the timer to 0.
func TestBlockTimeNeverRunsBackwards(t *testing.T) {
	c, _ := NewChain(testGenesis(t, 4))
	proposer := gcrypto.DeterministicKeyPair(0).Address().String()
	t0 := c.Genesis().Timestamp.Add(1030 * time.Hour)
	// The proposer has reported from one cell since genesis; the parent
	// carries its latest report, stamped 10 h before the parent.
	c.Table().Record(geo.Report{Location: spotOf(0), Timestamp: c.Genesis().Timestamp, Address: proposer})
	parent := blockAt(c, t0, []types.Transaction{locationReport(0, t0.Add(-10*time.Hour))})
	parent.Header.Proposer = gcrypto.DeterministicKeyPair(1).Address()
	if err := c.AddBlock(parent); err != nil {
		t.Fatal(err)
	}

	backdated := blockAt(c, t0.Add(-1020*time.Hour), nil)
	if err := c.AddBlock(backdated); !errors.Is(err, ErrTimeRegressed) {
		t.Fatalf("block stamped 1020 h before its parent: %v, want ErrTimeRegressed", err)
	}
	if got := c.Table().Timer(proposer); got != 1020*time.Hour {
		t.Fatalf("a refused block touched the proposer's timer: %v", got)
	}

	honest := blockAt(c, t0, []types.Transaction{locationReport(0, t0)})
	if err := c.AddBlock(honest); err != nil {
		t.Fatal(err)
	}
	if got := c.Table().Timer(proposer); got != 0 {
		t.Fatalf("proposer timer %v after its honest block, want 0", got)
	}
}

// TestRotationIsFixedWhenTheEraBegins: the genesis era rotates in
// address order (the table is empty). The boundary block that switches
// the era fixes the next rotation by geographic timer, as the block
// left the table: endorser 2 never proposed and leads, then 3, 1 and 0
// by how long ago each last did. The era's own blocks reset their
// proposers' timers and do not move it, and the order survives export
// and restore.
func TestRotationIsFixedWhenTheEraBegins(t *testing.T) {
	c, err := NewChain(eraGenesis(t, 4, ErasForced))
	if err != nil {
		t.Fatal(err)
	}
	addr := func(i int) gcrypto.Address { return gcrypto.DeterministicKeyPair(i).Address() }
	rotation := func(c *Chain) []gcrypto.Address {
		var out []gcrypto.Address
		for _, e := range c.Endorsers() {
			out = append(out, e.Address)
		}
		return out
	}
	want := []gcrypto.Address{addr(0), addr(1), addr(2), addr(3)}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if got := rotation(c); !slices.Equal(got, want) {
		t.Fatalf("genesis rotation %v, want address order %v", got, want)
	}

	// Every endorser reports every second; endorser 3 proposes the block
	// at +4 s, endorser 1 the one at +7 s, endorser 0 all the others.
	proposer := map[int]int{4: 3, 7: 1}
	g := c.Genesis().Timestamp
	for s := 1; s <= 10; s++ {
		at := g.Add(time.Duration(s) * time.Second)
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, locationReport(i, at))
		}
		b := blockAt(c, at, txs)
		b.Header.Proposer = addr(proposer[s])
		if err := c.AddBlock(b); err != nil {
			t.Fatalf("block at +%ds: %v", s, err)
		}
	}
	if c.Era() != 1 {
		t.Fatalf("era %d after the boundary block at +10 s, want 1", c.Era())
	}
	want = []gcrypto.Address{addr(2), addr(3), addr(1), addr(0)}
	if got := rotation(c); !slices.Equal(got, want) {
		t.Fatalf("era 1 rotation %v, want %v", got, want)
	}

	// Endorser 2 proposes the era's next blocks: its timer resets, the
	// rotation stays.
	for s := 11; s <= 13; s++ {
		at := g.Add(time.Duration(s) * time.Second)
		b := blockAt(c, at, []types.Transaction{locationReport(2, at)})
		b.Header.Proposer = addr(2)
		if err := c.AddBlock(b); err != nil {
			t.Fatalf("block at +%ds: %v", s, err)
		}
	}
	if timer := c.Table().Timer(addr(2).String()); timer != 0 {
		t.Fatalf("endorser 2's timer %v after proposing, want 0", timer)
	}
	if got := rotation(c); !slices.Equal(got, want) {
		t.Fatalf("rotation moved within the era: %v, want %v", got, want)
	}

	st, err := DecodeChainState(EncodeChainState(c.ExportState()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreChain(c.Genesis(), st)
	if err != nil {
		t.Fatal(err)
	}
	if got := rotation(restored); !slices.Equal(got, want) {
		t.Fatalf("restored rotation %v, want %v", got, want)
	}
}
