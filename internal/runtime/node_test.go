package runtime

import (
	"errors"
	"reflect"

	"gpbft/internal/codec"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/ledger"
	"gpbft/internal/types"
)

// scriptedEngine returns canned actions for each call.
type scriptedEngine struct {
	initActs    []consensus.Action
	requestActs []consensus.Action
	applied     int
	appliedActs []consensus.Action
}

func (s *scriptedEngine) Init(consensus.Time) []consensus.Action { return s.initActs }
func (s *scriptedEngine) OnEnvelope(consensus.Time, *consensus.Envelope) []consensus.Action {
	return nil
}
func (s *scriptedEngine) OnTimer(consensus.Time, consensus.TimerID) []consensus.Action { return nil }
func (s *scriptedEngine) OnRequest(consensus.Time, *types.Transaction) []consensus.Action {
	return s.requestActs
}
func (s *scriptedEngine) OnCommitApplied(consensus.Time) []consensus.Action {
	s.applied++
	out := s.appliedActs
	s.appliedActs = nil
	return out
}

// recordExec records executor calls.
type recordExec struct {
	sent      int
	timers    int
	cancelled int
}

func (r *recordExec) Send(gcrypto.Address, *consensus.Envelope)  { r.sent++ }
func (r *recordExec) SetTimer(consensus.TimerID, consensus.Time) { r.timers++ }
func (r *recordExec) CancelTimer(consensus.TimerID)              { r.cancelled++ }

func testNode(t *testing.T, eng consensus.Engine) (*Node, *recordExec, *ledger.Chain) {
	t.Helper()
	chain, err := ledger.NewChain(mkGenesis(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	kp := gcrypto.DeterministicKeyPair(0)
	app := NewApp(chain, NewMempool(0, nil), kp.Address(), epoch, 8)
	exec := &recordExec{}
	return &Node{ID: kp.Address(), Key: kp, App: app, Engine: eng, Exec: exec}, exec, chain
}

// validNextBlock builds a block that commits cleanly on the chain.
func validNextBlock(chain *ledger.Chain) *types.Block {
	head := chain.Head()
	tx := *mkTx(0, head.Header.Height+100)
	return types.NewBlock(types.BlockHeader{
		Height: head.Header.Height + 1, Seq: head.Header.Height + 1,
		PrevHash: head.Hash(), Proposer: gcrypto.DeterministicKeyPair(0).Address(),
		Timestamp: epoch.Add(time.Second),
	}, []types.Transaction{tx})
}

func TestNodeExecutesActions(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(0)
	env := consensus.Seal(kp, &fakeReq{})
	eng := &scriptedEngine{initActs: []consensus.Action{
		consensus.Send{To: kp.Address(), Env: env},
		consensus.Broadcast{To: []gcrypto.Address{kp.Address(), kp.Address()}, Env: env},
		consensus.StartTimer{ID: 1, Delay: time.Second},
		consensus.StopTimer{ID: 1},
	}}
	n, exec, _ := testNode(t, eng)
	n.Start(0)
	if exec.sent != 3 {
		t.Fatalf("sent %d, want 3 (1 send + 2 broadcast)", exec.sent)
	}
	if exec.timers != 1 || exec.cancelled != 1 {
		t.Fatalf("timers=%d cancelled=%d", exec.timers, exec.cancelled)
	}
}

type fakeReq struct{}

func (*fakeReq) Kind() consensus.MsgKind          { return consensus.KindRequest }
func (*fakeReq) MarshalCanonical(w *codec.Writer) { w.Uint8(1) }

func TestNodeCommitNotification(t *testing.T) {
	eng := &scriptedEngine{}
	n, _, chain := testNode(t, eng)
	b := validNextBlock(chain)
	eng.initActs = []consensus.Action{consensus.CommitBlock{Block: b}}

	var observed []uint64
	n.OnCommit = func(_ consensus.Time, blk *types.Block) {
		observed = append(observed, blk.Header.Height)
	}
	n.Start(0)
	if len(observed) != 1 || observed[0] != 1 {
		t.Fatalf("observed commits: %v", observed)
	}
	// The engine got its post-apply callback.
	if eng.applied != 1 {
		t.Fatalf("OnCommitApplied called %d times", eng.applied)
	}
	// Duplicate commit (e.g. sync + consensus) is benign.
	eng.initActs = []consensus.Action{consensus.CommitBlock{Block: b}}
	n.Start(0)
	if n.CommitErr != nil {
		t.Fatalf("duplicate commit flagged: %v", n.CommitErr)
	}
	// A genuinely invalid block records CommitErr.
	bad := validNextBlock(chain)
	bad.Header.PrevHash = gcrypto.HashBytes([]byte("bogus"))
	eng.initActs = []consensus.Action{consensus.CommitBlock{Block: bad}}
	n.Start(0)
	if n.CommitErr == nil || errors.Is(n.CommitErr, ledger.ErrDuplicateBlock) {
		t.Fatalf("CommitErr = %v", n.CommitErr)
	}
}

func TestNodeChainedCommitNotifications(t *testing.T) {
	// OnCommitApplied returning ANOTHER commit triggers another apply
	// round: the pipeline keeps flowing without external events.
	eng := &scriptedEngine{}
	n, _, chain := testNode(t, eng)
	b1 := validNextBlock(chain)
	eng.initActs = []consensus.Action{consensus.CommitBlock{Block: b1}}
	b2 := types.NewBlock(types.BlockHeader{
		Height: 2, Seq: 2, PrevHash: b1.Hash(),
		Proposer:  gcrypto.DeterministicKeyPair(0).Address(),
		Timestamp: epoch.Add(2 * time.Second),
	}, []types.Transaction{*mkTx(1, 300)})
	eng.appliedActs = []consensus.Action{consensus.CommitBlock{Block: b2}}
	n.Start(0)
	if n.CommitErr != nil {
		t.Fatal(n.CommitErr)
	}
	if chain.Height() != 2 {
		t.Fatalf("chained commit did not apply: height %d", chain.Height())
	}
	if eng.applied < 2 {
		t.Fatalf("OnCommitApplied called %d times, want >= 2", eng.applied)
	}
}

func TestNodeCounters(t *testing.T) {
	eng := &scriptedEngine{}
	n, _, chain := testNode(t, eng)
	b := validNextBlock(chain)
	eng.initActs = []consensus.Action{consensus.CommitBlock{Block: b}}
	n.Start(0)

	kp := gcrypto.DeterministicKeyPair(0)
	n.Deliver(time.Second, consensus.Seal(kp, &fakeReq{}))
	n.Deliver(time.Second, consensus.Seal(kp, &fakeReq{}))
	n.Fire(time.Second, 7)
	if err := n.Submit(time.Second, mkTx(0, 500)); err != nil {
		t.Fatal(err)
	}
	// An unsigned transaction fails verification and counts as rejected.
	if err := n.Submit(time.Second, &types.Transaction{Type: types.TxNormal, Nonce: 9}); err == nil {
		t.Fatal("unsigned tx accepted")
	}

	c := n.Counters()
	want := CounterSnapshot{
		Delivered: 2, Fired: 1, Submitted: 1, Rejected: 1,
		Committed: 1, LastHeight: 1,
		Pool: PoolStats{Pending: 1, Admitted: 1},
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("counters %+v, want %+v", c, want)
	}
}

func TestNodeEraSwitchHook(t *testing.T) {
	eng := &scriptedEngine{initActs: []consensus.Action{
		consensus.EraSwitched{Era: 3, Committee: []gcrypto.Address{gcrypto.DeterministicKeyPair(0).Address()}},
	}}
	n, _, _ := testNode(t, eng)
	var gotEra uint64
	n.OnEraSwitch = func(_ consensus.Time, era uint64, _ []gcrypto.Address) { gotEra = era }
	n.Start(0)
	if gotEra != 3 {
		t.Fatalf("era hook got %d", gotEra)
	}
}
