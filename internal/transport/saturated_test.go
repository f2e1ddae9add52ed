package transport

import (
	"sync"
	"testing"
	"time"

	"gpbft/internal/assemble"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/ledger"
	"gpbft/internal/runtime"
	"gpbft/internal/types"
)

// TestTCPSaturatedPullsNothing: a 4-node G-PBFT committee over
// localhost TCP is offered far more than it can commit in the window
// (4000 tx/s for 1 s), so it runs its pipeline full the whole time —
// commits for slots ahead of a node's head are the normal case, not a
// sign of lag. Every offered transaction must commit, and no block may
// travel by block sync on this crash-free run.
func TestTCPSaturatedPullsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp load run in -short mode")
	}
	const (
		n      = 4
		rate   = 4000
		window = time.Second
		batch  = 32
	)
	epoch := time.Now()
	site := geo.Point{Lng: 114.17, Lat: 22.30}
	keys := make([]*gcrypto.KeyPair, n)
	g := &ledger.Genesis{ChainID: "tcp-sat-test", Timestamp: epoch, Policy: ledger.DefaultPolicy()}
	for i := range keys {
		keys[i] = gcrypto.DeterministicKeyPair(i)
		g.Endorsers = append(g.Endorsers, types.EndorserInfo{
			Address: keys[i].Address(),
			PubKey:  keys[i].Public(),
			Geohash: geo.MustEncode(site, geo.CSCPrecision),
		})
	}

	// Node 0 counts each offered transaction's first commit.
	var (
		mu        sync.Mutex
		pending   = make(map[gcrypto.Hash]bool)
		committed int
	)
	chains := make([]*ledger.Chain, n)
	nodes := make([]*runtime.Node, n)
	for i := range nodes {
		built, err := assemble.Node(assemble.Config{
			Genesis: g,
			Key:     keys[i],
			Engine: core.Config{
				Epoch:              epoch,
				CheckpointInterval: 16,
				ViewChangeTimeout:  20 * time.Second,
				DisableEraSwitch:   true,
			},
			Batch: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = built.Node
		chains[i] = built.Node.App.Chain()
	}
	nodes[0].OnCommit = func(_ consensus.Time, b *types.Block) {
		mu.Lock()
		defer mu.Unlock()
		for i := range b.Txs {
			if id := b.Txs[i].ID(); pending[id] {
				delete(pending, id)
				committed++
			}
		}
	}
	_, runners := runMesh(t, keys, nodes)

	// Warm the mesh before the window: connections dial lazily on first
	// send, so without a preamble the n² dial-and-hello burst and the
	// first slow round land inside it. Warm-up transactions use their
	// own client keys and are not counted.
	for w := 0; w < 8; w++ {
		wtx := &types.Transaction{
			Type:    types.TxNormal,
			Nonce:   1,
			Payload: []byte{0xFF, byte(w)},
			Fee:     1,
			Geo:     types.GeoInfo{Location: geo.Point{Lng: site.Lng - 1 - float64(w), Lat: site.Lat}, Timestamp: epoch},
		}
		wtx.Sign(gcrypto.DeterministicKeyPair(5000 + w))
		_ = runners[w%n].Submit(wtx)
	}
	warmDeadline := time.Now().Add(3 * time.Second)
	for chains[0].Head().Header.Height == 0 && time.Now().Before(warmDeadline) {
		time.Sleep(10 * time.Millisecond)
	}

	// Sign the whole load up front. Each sender claims its own cell: n
	// identities reporting one cell would trip the Sybil same-cell
	// detector and turn the run into an accountability workload.
	total := int(rate * window.Seconds())
	txs := make([]*types.Transaction, total)
	for k := range txs {
		tx := &types.Transaction{
			Type:    types.TxNormal,
			Nonce:   uint64(k/n + 1),
			Payload: []byte{byte(k), byte(k >> 8), byte(k >> 16)},
			Fee:     1,
			Geo: types.GeoInfo{
				Location:  geo.Point{Lng: site.Lng + float64(k%n), Lat: site.Lat},
				Timestamp: epoch.Add(time.Duration(k) * time.Millisecond),
			},
		}
		tx.Sign(keys[k%n])
		txs[k] = tx
	}
	mu.Lock()
	for _, tx := range txs {
		pending[tx.ID()] = true
	}
	mu.Unlock()

	// Offer at the rate, round-robin across nodes.
	start := time.Now()
	interval := window / time.Duration(total)
	for k, tx := range txs {
		if d := time.Until(start.Add(time.Duration(k) * interval)); d > 0 {
			time.Sleep(d)
		}
		_ = runners[k%n].Submit(tx)
	}

	// Drain until everything committed, commits stall for 15 s, or the
	// hard cap expires.
	hardCap := time.Now().Add(3*window + time.Minute)
	lastSeen, lastProgress := 0, time.Now()
	for {
		mu.Lock()
		got := committed
		mu.Unlock()
		if got >= total {
			break
		}
		if got > lastSeen {
			lastSeen, lastProgress = got, time.Now()
		}
		if time.Since(lastProgress) > 15*time.Second || time.Now().After(hardCap) {
			t.Fatalf("committed %d of %d", got, total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var synced uint64
	for _, node := range nodes {
		synced += node.Counters().Sync.BlocksSynced
	}
	if synced != 0 {
		t.Fatalf("%d blocks travelled by block sync on a crash-free run", synced)
	}
}
