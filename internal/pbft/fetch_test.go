package pbft_test

import (
	"crypto/sha256"
	"crypto/sha512"
	"fmt"
	"math/big"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/runtime"
	"gpbft/internal/simnet"
	"gpbft/internal/types"
)

// handlerTap lets a test reroute a node's incoming envelopes: deliver
// returns false for one the test handles itself.
type handlerTap struct {
	*runtime.Node
	deliver func(now consensus.Time, env *consensus.Envelope) bool
}

func (h handlerTap) HandleMessage(now consensus.Time, env *consensus.Envelope) {
	if h.deliver(now, env) {
		h.Node.HandleMessage(now, env)
	}
}

// sent returns the envelopes of kind in acts, with their destinations.
func sent(acts []consensus.Action, kind consensus.MsgKind) (envs []*consensus.Envelope, to []gcrypto.Address) {
	for _, a := range acts {
		switch v := a.(type) {
		case consensus.Send:
			if v.Env.MsgKind == kind {
				envs, to = append(envs, v.Env), append(to, v.To)
			}
		case consensus.Broadcast:
			if v.Env.MsgKind == kind {
				envs, to = append(envs, v.Env), append(to, v.To...)
			}
		}
	}
	return envs, to
}

// committedEverywhere fails the test unless every node outside skip
// committed tx and ended in view.
func (c *cluster) committedEverywhere(tx *types.Transaction, view uint64, skip gcrypto.Address) {
	c.t.Helper()
	for a, n := range c.nodes {
		if a == skip {
			continue
		}
		if _, ok := n.App.Chain().FindTx(tx.ID()); !ok {
			c.t.Fatalf("node %s never committed the transaction", a.Short())
		}
		if v := c.engines[a].View(); v != view {
			c.t.Fatalf("node %s ended in view %d, want %d", a.Short(), v, view)
		}
	}
}

// TestProposalOvertakingItsRelaysCommits: a backup's link from the
// submitting node is slow, so the pre-prepare naming the transaction
// arrives first. The backup parks it, asks the primary once, completes
// it from the reply, and the block commits in view 0.
func TestProposalOvertakingItsRelaysCommits(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	prim := c.primary()
	var entry, slow gcrypto.Address
	for _, a := range c.com.Addresses() {
		if a != prim {
			entry, slow = slow, a
		}
	}
	c.net.AddNode(slow, handlerTap{c.nodes[slow], func(now consensus.Time, env *consensus.Envelope) bool {
		if env.MsgKind != consensus.KindRequest {
			return true
		}
		c.net.Schedule(now+50*time.Millisecond, func(now consensus.Time) { c.nodes[slow].HandleMessage(now, env) })
		return false
	}})
	tx := clientTx(0, 1)
	c.submitAt(10*time.Millisecond, entry, tx)
	c.run(5 * time.Second)

	c.committedEverywhere(tx, 0, gcrypto.Address{})
	got := c.engines[slow].Tally()
	if got.ProposalsParked != 1 || got.FetchesSent != 1 {
		t.Fatalf("slow backup parked %d proposals and sent %d fetches, want 1 and 1", got.ProposalsParked, got.FetchesSent)
	}
	if got := c.engines[prim].Tally(); got.FetchesAnswered != 1 {
		t.Fatalf("primary answered %d fetches, want 1", got.FetchesAnswered)
	}
}

// TestParkedProposalFilledByRelay: a parked pre-prepare is redelivered
// when the relay it waits for arrives, before any fetch reply; the
// reply that follows changes nothing.
func TestParkedProposalFilledByRelay(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)
	tx := clientTx(0, 1)
	chain := r.app.Chain()
	b := types.NewBlock(types.BlockHeader{Height: 1, Seq: 1, PrevHash: chain.Head().Hash(),
		Proposer: r.com.Primary(0), Timestamp: epoch.Add(time.Second)}, []types.Transaction{*tx})

	acts := r.eng.OnEnvelope(0, r.prePrepare(b))
	if hasKind(acts, consensus.KindPrepare) {
		t.Fatal("prepared a block it cannot assemble")
	}
	fetches, to := sent(acts, consensus.KindFetch)
	if len(fetches) != 1 || to[0] != r.com.Primary(0) {
		t.Fatalf("sent %d fetches to %v, want one to the primary", len(fetches), to)
	}
	var f pbft.Fetch
	if err := consensus.Open(fetches[0], consensus.KindFetch, &f); err != nil || len(f.IDs) != 1 || f.IDs[0] != tx.ID() {
		t.Fatalf("fetch names %v (%v), want the one missing ID", f.IDs, err)
	}
	if r.eng.HasProposal(1) {
		t.Fatal("a parked proposal counts as accepted")
	}

	relay := pbft.NewRequest(r.keys[r.backupPos(selfPos)], tx)
	if acts := r.eng.OnEnvelope(0, relay); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("the relay that completed the block did not release the proposal")
	}
	reply := consensus.Unsealed(r.keys[prim], &pbft.Fetch{SlotHeader: f.SlotHeader, Txs: b.Txs})
	if acts := r.eng.OnEnvelope(0, reply); len(acts) != 0 {
		t.Fatalf("a late fetch reply produced %d actions", len(acts))
	}
	if got := r.eng.Tally(); got.ProposalsParked != 1 || got.FetchesSent != 1 {
		t.Fatalf("parked %d, fetched %d; want 1 and 1", got.ProposalsParked, got.FetchesSent)
	}
}

// TestFetchReplyNotMatchingTxRootIgnored: a reply that is not an answer
// to the fetch — other bodies than the IDs asked for — changes nothing
// and costs no second fetch. An answer whose bodies do not hash to the
// header's TxRoot completes nothing and makes the backup ask for the
// whole block once; only the genuine whole block completes it.
func TestFetchReplyNotMatchingTxRootIgnored(t *testing.T) {
	prim := newUnitRig(t, 0).primaryPos()
	selfPos := (prim + 1) % 4
	r := newUnitRig(t, selfPos)
	r.eng.Init(0)
	pooled, tx := clientTx(0, 1), clientTx(1, 1)
	r.pool(*pooled)
	b := types.NewBlock(types.BlockHeader{Height: 1, Seq: 1, PrevHash: r.app.Chain().Head().Hash(),
		Proposer: r.com.Primary(0), Timestamp: epoch.Add(time.Second)}, []types.Transaction{*pooled, *tx})
	pp := r.prePrepare(b)
	fetches, _ := sent(r.eng.OnEnvelope(0, pp), consensus.KindFetch)
	if len(fetches) != 1 {
		t.Fatalf("sent %d fetches, want 1", len(fetches))
	}
	slot, _ := consensus.PeekSlot(pp)
	reply := func(bodies ...types.Transaction) []consensus.Action {
		acts := r.eng.OnEnvelope(0, consensus.Unsealed(r.keys[prim], &pbft.Fetch{SlotHeader: slot, Txs: bodies}))
		if hasKind(acts, consensus.KindPrepare) || r.eng.HasProposal(1) {
			t.Fatal("accepted a block from bodies that do not hash to its TxRoot")
		}
		return acts
	}

	for _, bodies := range [][]types.Transaction{{*clientTx(2, 2)}, {*tx, *clientTx(2, 2)}, {*pooled}} {
		if acts := reply(bodies...); len(acts) != 0 {
			t.Fatalf("a reply that answers no fetch produced %d actions", len(acts))
		}
	}
	// The one ID asked for, with other bytes (the signature).
	forged := *tx
	forged.Signature = append([]byte(nil), tx.Signature...)
	forged.Signature[0] ^= 1
	fetches, _ = sent(reply(forged), consensus.KindFetch)
	var f pbft.Fetch
	if len(fetches) != 1 || consensus.Open(fetches[0], consensus.KindFetch, &f) != nil || len(f.IDs) != 2 {
		t.Fatalf("a wrong answer sent %d fetches naming %d IDs, want one naming both", len(fetches), len(f.IDs))
	}
	if acts := reply(*tx); len(acts) != 0 {
		t.Fatal("an answer to the first fetch was taken for one to the second")
	}
	if got := r.eng.Tally(); got.FetchesSent != 2 {
		t.Fatalf("sent %d fetches, want 2", got.FetchesSent)
	}
	acts := r.eng.OnEnvelope(0, consensus.Unsealed(r.keys[prim], &pbft.Fetch{SlotHeader: slot, Txs: b.Txs}))
	if !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("the genuine bodies did not complete the proposal")
	}
}

// TestSignatureVariantFetchesTheFullBlock: a client signs one
// transaction twice with different nonces — two valid signatures, one
// ID. The primary pools one variant and every backup the other, so each
// backup assembles a block that does not hash to the proposed TxRoot.
// It asks the primary for every body, takes the primary's variant, and
// the block commits in view 0 with no view change.
func TestSignatureVariantFetchesTheFullBlock(t *testing.T) {
	c := newCluster(t, defaultOpts(4))
	prim := c.primary()
	packed := clientTx(0, 1)
	pooled := signVariant(t, packed, 1000)
	if pooled.ID() != packed.ID() || string(pooled.Signature) == string(packed.Signature) || pooled.Verify() != nil {
		t.Fatal("setup: no second valid signature for the same ID")
	}
	c.net.Schedule(10*time.Millisecond, func(now consensus.Time) {
		for a, n := range c.nodes {
			if a != prim {
				if err := n.App.SubmitTx(pooled); err != nil {
					t.Error(err)
				}
			}
		}
		if err := c.nodes[prim].Submit(now, packed); err != nil {
			t.Error(err)
		}
	})
	c.run(5 * time.Second)

	c.committedEverywhere(packed, 0, gcrypto.Address{})
	for a, n := range c.nodes {
		b, err := n.App.Chain().BlockAt(1)
		if err != nil || string(b.Txs[0].Signature) != string(packed.Signature) {
			t.Fatalf("node %s committed another variant at height 1", a.Short())
		}
		if a == prim {
			continue
		}
		if got := c.engines[a].Tally(); got.ProposalsParked != 1 || got.FetchesSent != 1 {
			t.Fatalf("backup %s parked %d and fetched %d, want 1 and 1", a.Short(), got.ProposalsParked, got.FetchesSent)
		}
	}
}

// TestReissueFetchesFromPrepareSenders: view 1's primary never saw the
// transaction nor the proposal of view 0, which the other backups
// prepared before the primary of view 0 crashed. The NewView re-issues
// the prepared block by ID; its own primary cannot assemble it, asks the
// replicas whose prepares are in the proof, and the block commits in
// view 1.
func TestReissueFetchesFromPrepareSenders(t *testing.T) {
	o := defaultOpts(4)
	o.simCfg.Latency = simnet.UniformLatency{Base: time.Millisecond}
	c := newCluster(t, o)
	prim, next := c.primary(), c.com.Primary(1)
	var entry gcrypto.Address
	for _, a := range c.com.Addresses() {
		if a != prim && a != next {
			entry = a
		}
	}
	c.net.AddNode(next, handlerTap{c.nodes[next], func(_ consensus.Time, env *consensus.Envelope) bool {
		return env.MsgKind != consensus.KindRequest && !(env.MsgKind == consensus.KindPrePrepare && env.From == prim)
	}})
	// The primary proposes and dies before any prepare reaches it.
	c.net.AddNode(prim, handlerTap{c.nodes[prim], func(now consensus.Time, env *consensus.Envelope) bool {
		if env.MsgKind == consensus.KindRequest {
			c.nodes[prim].HandleMessage(now, env)
			c.net.Crash(prim)
			return false
		}
		return true
	}})
	tx := clientTx(0, 1)
	c.submitAt(10*time.Millisecond, entry, tx)
	c.run(10 * time.Second)

	c.committedEverywhere(tx, 1, prim)
	if got := c.engines[next].Tally(); got.ProposalsParked != 1 || got.FetchesSent == 0 {
		t.Fatalf("view 1's primary parked %d and fetched %d times, want 1 and some", got.ProposalsParked, got.FetchesSent)
	}
	answered := uint64(0)
	for a, e := range c.engines {
		if a != prim && a != next {
			answered += e.Tally().FetchesAnswered
		}
	}
	if answered == 0 {
		t.Fatal("no prepare sender answered the fetch")
	}
}

// TestReissueOfAFetchedBlockNeedsNoFetch: a backup whose pool never
// held the transaction completed view 0's proposal from a fetch reply.
// When a NewView re-issues that block it still holds it, though the view
// change dropped the instance: it prepares in view 1 at once and sends no
// second fetch.
func TestReissueOfAFetchedBlockNeedsNoFetch(t *testing.T) {
	probe := newUnitRig(t, 0)
	prim, v1prim := probe.primaryPos(), probe.com.IndexOf(probe.com.Primary(1))
	self := 0
	for self == prim || self == v1prim {
		self++
	}
	r := newUnitRig(t, self)
	r.eng.Init(0)
	tx := clientTx(0, 1)
	b := types.NewBlock(types.BlockHeader{Height: 1, Seq: 1, PrevHash: r.app.Chain().Head().Hash(),
		Proposer: r.com.Primary(0), Timestamp: epoch.Add(time.Second)}, []types.Transaction{*tx})
	pp := r.prePrepare(b)
	slot, _ := consensus.PeekSlot(pp)
	r.eng.OnEnvelope(0, pp)
	if acts := r.eng.OnEnvelope(0, consensus.Unsealed(r.keys[prim], &pbft.Fetch{SlotHeader: slot, Txs: b.Txs})); !hasKind(acts, consensus.KindPrepare) {
		t.Fatal("the reply did not complete the proposal")
	}

	var vcEnvs [][]byte
	for i := 0; i < 4; i++ {
		if i != prim {
			vcEnvs = append(vcEnvs, consensus.EncodeEnvelope(r.seal(i, &pbft.ViewChange{Era: 0, NewView: 1})))
		}
	}
	reissue := r.seal(v1prim, pbft.NewPrePrepare(0, 1, 1, b))
	nv := r.seal(v1prim, &pbft.NewView{Era: 0, View: 1, ViewChangeEnvs: vcEnvs,
		PrePrepares: [][]byte{consensus.EncodeEnvelope(reissue)}})
	acts := r.eng.OnEnvelope(0, nv)
	if fetches, _ := sent(acts, consensus.KindFetch); len(fetches) != 0 || !hasKind(acts, consensus.KindPrepare) {
		t.Fatalf("the re-issue sent %d fetches and prepared: %v; want no fetch and a prepare",
			len(fetches), hasKind(acts, consensus.KindPrepare))
	}
	if got := r.eng.Tally(); got.ProposalsParked != 1 || got.FetchesSent != 1 {
		t.Fatalf("parked %d, fetched %d; want 1 and 1", got.ProposalsParked, got.FetchesSent)
	}
}

// signVariant re-signs tx's content under its sender's key with the
// ed25519 nonce r instead of the deterministic one: as valid a
// signature as the original, with other bytes. A client with its own
// signer can do this; the standard library cannot.
func signVariant(t *testing.T, tx *types.Transaction, r int64) *types.Transaction {
	t.Helper()
	seed := sha256.Sum256([]byte(fmt.Sprintf("gpbft-sim-node-%d", 1000))) // clientTx(0, ·)'s key
	h := sha512.Sum512(seed[:])
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	a := leInt(h[:32])
	pub := edEncode(edMul(a, edBase()))
	if string(pub) != string(tx.SenderPub) {
		t.Fatal("setup: derived key does not match the transaction's sender")
	}
	w := codec.NewWriter(128) // the signed bytes, as types.Transaction lays them out
	w.String("gpbft/tx/v1")
	w.Uint8(uint8(tx.Type))
	w.Uint64(tx.Nonce)
	w.Raw(tx.Sender[:])
	w.WriteBytes(tx.Payload)
	w.Uint64(tx.Fee)
	tx.Geo.MarshalCanonical(w)

	rPt := edEncode(edMul(big.NewInt(r), edBase()))
	k := sha512.Sum512(append(append(append([]byte(nil), rPt...), pub...), w.Bytes()...))
	s := new(big.Int).Mul(leInt(k[:]), a)
	s.Add(s, big.NewInt(r)).Mod(s, edL)
	sb := make([]byte, 32)
	for i, b := range s.Bytes() { // big-endian to little-endian
		sb[len(s.Bytes())-1-i] = b
	}
	out := *tx
	out.Signature = append(rPt, sb...)
	return &out
}

// Edwards25519 in affine coordinates over math/big: enough to sign one
// transaction in a test.
var (
	edP    = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	edL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	edD    = new(big.Int).Mod(new(big.Int).Mul(big.NewInt(-121665), new(big.Int).ModInverse(big.NewInt(121666), edP)), edP)
)

type edPoint struct{ x, y *big.Int }

func edBase() edPoint {
	x, _ := new(big.Int).SetString("15112221349535400772501151409588531511454012693041857206046113283949847762202", 10)
	y, _ := new(big.Int).SetString("46316835694926478169428394003475163141307993866256225615783033603165251855960", 10)
	return edPoint{x, y}
}

func edAdd(p, q edPoint) edPoint {
	xy := new(big.Int).Mul(p.x, q.x)
	xy.Mul(xy, p.y).Mul(xy, q.y).Mul(xy, edD).Mod(xy, edP)
	x := new(big.Int).Add(new(big.Int).Mul(p.x, q.y), new(big.Int).Mul(p.y, q.x))
	y := new(big.Int).Add(new(big.Int).Mul(p.y, q.y), new(big.Int).Mul(p.x, q.x))
	xDen := new(big.Int).Add(big.NewInt(1), xy)
	yDen := new(big.Int).Sub(big.NewInt(1), xy)
	x.Mul(x, xDen.ModInverse(xDen.Mod(xDen, edP), edP)).Mod(x, edP)
	y.Mul(y, yDen.ModInverse(yDen.Mod(yDen, edP), edP)).Mod(y, edP)
	return edPoint{x, y}
}

func edMul(k *big.Int, p edPoint) edPoint {
	acc := edPoint{big.NewInt(0), big.NewInt(1)}
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = edAdd(acc, acc)
		if k.Bit(i) == 1 {
			acc = edAdd(acc, p)
		}
	}
	return acc
}

func edEncode(p edPoint) []byte {
	out := make([]byte, 32)
	yb := p.y.Bytes()
	for i, b := range yb {
		out[len(yb)-1-i] = b
	}
	out[31] |= byte(p.x.Bit(0) << 7)
	return out
}

func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}
