package core

import (
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

var (
	epoch  = time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC)
	region = geo.NewRegion(geo.Point{Lng: 114.17, Lat: 22.30}, geo.Point{Lng: 114.19, Lat: 22.32})
)

// spot returns a distinct in-region point per index (≥ ~20 m apart).
func spot(i int) geo.Point {
	return geo.Point{Lng: 114.171 + float64(i)*0.0004, Lat: 22.301 + float64(i%7)*0.0005}
}

// fixture builds a chain with nEndorsers genesis endorsers and a
// policy tuned for fast elections.
func fixture(t *testing.T, nEndorsers int) *ledger.Chain {
	t.Helper()
	g := &ledger.Genesis{ChainID: "core-test", Timestamp: epoch}
	g.Policy = ledger.AdmittancePolicy{
		MinEndorsers:        4,
		MaxEndorsers:        8,
		Region:              region,
		QualificationWindow: 10 * time.Second,
		MinReports:          3,
		EraPeriod:           5 * time.Second,
		SwitchPeriod:        250 * time.Millisecond,
		ReportInterval:      time.Second,
	}
	for i := 0; i < nEndorsers; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(spot(i), geo.CSCPrecision),
		})
	}
	chain, err := ledger.NewChain(g)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// reportTx builds a signed location report from key index i.
func reportTx(i int, nonce uint64, loc geo.Point, at time.Time) types.Transaction {
	tx := types.Transaction{
		Type:  types.TxLocationReport,
		Nonce: nonce,
		Geo:   types.GeoInfo{Location: loc, Timestamp: at},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(i))
	return tx
}

// commit appends a block of txs to the chain.
func commit(t *testing.T, chain *ledger.Chain, at time.Time, txs []types.Transaction) {
	t.Helper()
	head := chain.Head()
	b := types.NewBlock(types.BlockHeader{
		Height:    head.Header.Height + 1,
		Era:       head.Header.Era,
		Seq:       head.Header.Height + 1,
		PrevHash:  head.Hash(),
		Proposer:  gcrypto.DeterministicKeyPair(0).Address(),
		Timestamp: at,
	}, txs)
	if err := chain.AddBlock(b); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

// feedReports commits periodic reports for the given key index at loc,
// every second from start for n seconds.
func feedReports(t *testing.T, chain *ledger.Chain, idx int, loc geo.Point, start time.Time, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		at := start.Add(time.Duration(k) * time.Second)
		commit(t, chain, at, []types.Transaction{reportTx(idx, uint64(k+1), loc, at)})
	}
}

// feedAllEndorsers keeps all genesis endorsers reporting so re-auth
// passes.
func feedAllEndorsers(t *testing.T, chain *ledger.Chain, nEndorsers, seconds int) time.Time {
	t.Helper()
	var last time.Time
	for k := 0; k < seconds; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		var txs []types.Transaction
		for i := 0; i < nEndorsers; i++ {
			txs = append(txs, reportTx(i, uint64(k+1), spot(i), at))
		}
		commit(t, chain, at, txs)
		last = at
	}
	return last
}

func TestElectionKeepsHealthyCommittee(t *testing.T) {
	chain := fixture(t, 4)
	asOf := feedAllEndorsers(t, chain, 4, 20)
	res := ledger.RunElection(chain, asOf)
	if !res.IsEmpty() {
		t.Fatalf("healthy committee should yield empty change: %+v", res)
	}
}

func TestElectionExpelsSilentEndorser(t *testing.T) {
	chain := fixture(t, 5)
	// Endorsers 0-3 report; endorser 4 is silent.
	var asOf time.Time
	for k := 0; k < 20; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+1), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	silent := gcrypto.DeterministicKeyPair(4).Address()
	if len(res.Invalid) != 1 || res.Invalid[0] != silent {
		t.Fatalf("invalid=%v, want [%s]", res.Invalid, silent.Short())
	}
	if res.Rejected[silent] != "insufficient geographic reports" {
		t.Fatalf("reason: %q", res.Rejected[silent])
	}
}

func TestElectionExpelsMovedEndorser(t *testing.T) {
	chain := fixture(t, 5)
	var asOf time.Time
	for k := 0; k < 20; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+1), spot(i), at))
		}
		// Endorser 4 wanders between two cells.
		loc := spot(4)
		if k%2 == 1 {
			loc = spot(5)
		}
		txs = append(txs, reportTx(4, uint64(k+1), loc, at))
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	mover := gcrypto.DeterministicKeyPair(4).Address()
	if len(res.Invalid) != 1 || res.Invalid[0] != mover {
		t.Fatalf("invalid=%v, want the mover", res.Invalid)
	}
	if res.Rejected[mover] != "location changed during window" {
		t.Fatalf("reason: %q", res.Rejected[mover])
	}
}

func TestElectionQualifiesResidentCandidate(t *testing.T) {
	chain := fixture(t, 4)
	// Candidate (key 10) reports from a fixed spot for > the window.
	var asOf time.Time
	for k := 0; k < 15; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		txs := []types.Transaction{reportTx(10, uint64(k+1), spot(10), at)}
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	cand := gcrypto.DeterministicKeyPair(10).Address()
	if len(res.Qualified) != 1 || res.Qualified[0].Address != cand {
		t.Fatalf("qualified=%v rejected=%v", res.Qualified, res.Rejected)
	}
	if res.Qualified[0].PubKey == nil || res.Qualified[0].Geohash == "" {
		t.Fatal("qualified info incomplete")
	}
	if len(res.Invalid) != 0 {
		t.Fatalf("healthy committee member expelled: %v", res.Invalid)
	}
}

func TestElectionRejectsShortResidency(t *testing.T) {
	chain := fixture(t, 4)
	var asOf time.Time
	// Only 5 seconds of residency; window is 10.
	for k := 0; k < 5; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		txs := []types.Transaction{reportTx(10, uint64(k+1), spot(10), at)}
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	cand := gcrypto.DeterministicKeyPair(10).Address()
	if len(res.Qualified) != 0 {
		t.Fatalf("short-residency candidate admitted")
	}
	if res.Rejected[cand] != "geographic timer below qualification window" {
		t.Fatalf("reason: %q", res.Rejected[cand])
	}
}

func TestElectionRejectsMovingCandidate(t *testing.T) {
	chain := fixture(t, 4)
	var asOf time.Time
	for k := 0; k < 15; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		loc := spot(10)
		if k == 12 {
			loc = spot(11) // one hop near the end of the window
		}
		txs := []types.Transaction{reportTx(10, uint64(k+1), loc, at)}
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	if len(res.Qualified) != 0 {
		t.Fatal("moving candidate admitted")
	}
}

func TestElectionSybilSameCellRejected(t *testing.T) {
	chain := fixture(t, 4)
	var asOf time.Time
	// Keys 10 and 11 both claim spot(10): the clone attack.
	for k := 0; k < 15; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		txs := []types.Transaction{
			reportTx(10, uint64(k+1), spot(10), at),
			reportTx(11, uint64(k+1), spot(10), at.Add(time.Millisecond)),
		}
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	if len(res.Qualified) != 0 {
		t.Fatalf("sybil pair admitted: %v", res.Qualified)
	}
	for _, idx := range []int{10, 11} {
		addr := gcrypto.DeterministicKeyPair(idx).Address()
		if res.Rejected[addr] != "CSC cell contested (possible Sybil)" {
			t.Fatalf("key %d reason: %q", idx, res.Rejected[addr])
		}
	}
}

func TestElectionRejectsOutOfRegion(t *testing.T) {
	chain := fixture(t, 4)
	outside := geo.Point{Lng: 100, Lat: 10}
	var asOf time.Time
	for k := 0; k < 15; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		// Region enforcement happens at block validation for txs, so
		// feed the table directly to simulate a pre-committed liar.
		chain.Table().Record(geo.Report{Location: outside, Timestamp: at,
			Address: gcrypto.DeterministicKeyPair(10).Address().String()})
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	if len(res.Qualified) != 0 {
		t.Fatal("out-of-region candidate admitted")
	}
}

func TestElectionRespectsBlacklistAndCap(t *testing.T) {
	chain := fixture(t, 4)
	banned := gcrypto.DeterministicKeyPair(10).Address()
	chain.Genesis().Policy.Blacklist = []gcrypto.Address{banned}

	var asOf time.Time
	// Candidates 10..16 (7 of them); cap is 8, committee is 4 → room 4.
	for k := 0; k < 15; k++ {
		at := epoch.Add(time.Duration(k) * time.Second)
		var txs []types.Transaction
		for cand := 10; cand <= 16; cand++ {
			// Stagger first reports so geo timers differ: candidate 16
			// has been resident longest.
			txs = append(txs, reportTx(cand, uint64(k+1), spot(cand), at))
		}
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), at))
		}
		commit(t, chain, at, txs)
		asOf = at
	}
	res := ledger.RunElection(chain, asOf)
	if len(res.Qualified) != 4 {
		t.Fatalf("qualified %d, want 4 (cap)", len(res.Qualified))
	}
	for _, q := range res.Qualified {
		if q.Address == banned {
			t.Fatal("blacklisted candidate admitted")
		}
	}
	if res.Rejected[banned] != "blacklisted" {
		t.Fatalf("banned reason: %q", res.Rejected[banned])
	}
}

func TestElectionWhitelistBypassesQualification(t *testing.T) {
	chain := fixture(t, 4)
	vip := gcrypto.DeterministicKeyPair(10).Address()
	chain.Genesis().Policy.Whitelist = []gcrypto.Address{vip}

	// A single report — far from qualifying normally.
	at := epoch.Add(time.Second)
	commit(t, chain, at, []types.Transaction{reportTx(10, 1, spot(10), at)})
	// Endorsers keep reporting.
	var asOf time.Time
	for k := 2; k < 8; k++ {
		att := epoch.Add(time.Duration(k) * time.Second)
		var txs []types.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, reportTx(i, uint64(k+100), spot(i), att))
		}
		commit(t, chain, att, txs)
		asOf = att
	}
	res := ledger.RunElection(chain, asOf)
	if len(res.Qualified) != 1 || res.Qualified[0].Address != vip {
		t.Fatalf("whitelisted candidate not admitted: %+v rejected=%v", res.Qualified, res.Rejected)
	}
}

func TestElectionStallsBelowMinimum(t *testing.T) {
	chain := fixture(t, 4)
	// Nobody reports: all four endorsers would be expelled, leaving 0
	// < min 4 and no candidates. The election must stall rather than
	// emit a committee-destroying change.
	res := ledger.RunElection(chain, epoch.Add(time.Minute))
	if !res.Stalled {
		t.Fatalf("expected stalled election, got %+v", res)
	}
	if !res.IsEmpty() {
		t.Fatal("stalled election must carry no change")
	}
}

// TestElectionIgnoresLocalForkRecords: a conflicting block refused at a
// committed height leaves a fork record on this node only — which
// attempts a node sees depends on delivery — so Algorithm 1, whose
// result every node applies on its own at the boundary block, must not
// read it. A double-signer is expelled by committed evidence instead
// (TestByzantineAccountabilityExpulsion, internal/chaos).
func TestElectionIgnoresLocalForkRecords(t *testing.T) {
	chain := fixture(t, 5)
	asOf := feedAllEndorsers(t, chain, 5, 20)

	// Manufacture fork evidence from endorser 2.
	head := chain.Head()
	forker := gcrypto.DeterministicKeyPair(2).Address()
	conflict := types.NewBlock(types.BlockHeader{
		Height:    head.Header.Height, // already committed height
		Era:       head.Header.Era,
		Seq:       head.Header.Seq,
		PrevHash:  head.Header.PrevHash,
		Proposer:  forker,
		Timestamp: asOf.Add(time.Second),
	}, nil)
	if err := chain.AddBlock(conflict); err == nil {
		t.Fatal("conflicting block must be rejected")
	}
	if len(chain.Forks()) != 1 {
		t.Fatal("fork evidence not recorded")
	}

	res := ledger.RunElection(chain, asOf)
	for _, a := range res.Invalid {
		if a == forker {
			t.Fatalf("a local fork record expelled its proposer: invalid=%v", res.Invalid)
		}
	}
}
