package byzantine

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/core"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

var (
	stubKey   = gcrypto.DeterministicKeyPair(7)
	stubPeers = []gcrypto.Address{
		gcrypto.DeterministicKeyPair(1).Address(),
		gcrypto.DeterministicKeyPair(2).Address(),
		gcrypto.DeterministicKeyPair(3).Address(),
		gcrypto.DeterministicKeyPair(4).Address(),
	}
	stubSnapshot = []byte("the chain state a joiner installs")
)

// stub is an engine whose every step returns the same script: a
// pre-prepare, a prepare and a commit broadcast to four peers, a
// snapshot response to one, and a timer.
type stub struct{ notified int }

func (s *stub) script() []consensus.Action {
	header := types.BlockHeader{Height: 5, Era: 1, Seq: 5, Timestamp: time.Unix(1565000000, 0)}
	slot := consensus.SlotHeader{Era: 1, Seq: 5, Digest: header.Hash()}
	return []consensus.Action{
		consensus.Broadcast{To: stubPeers, Env: consensus.Seal(stubKey, &pbft.PrePrepare{SlotHeader: slot, Header: header})},
		consensus.Broadcast{To: stubPeers, Env: consensus.Seal(stubKey, &pbft.Prepare{SlotHeader: slot})},
		consensus.Broadcast{To: stubPeers, Env: consensus.Seal(stubKey, &pbft.Commit{SlotHeader: slot})},
		consensus.Send{To: stubPeers[0], Env: consensus.Seal(stubKey, &core.SnapshotResponse{Height: 4, Data: bytes.Clone(stubSnapshot)})},
		consensus.StartTimer{ID: 1, Delay: time.Second},
	}
}

func (s *stub) Init(consensus.Time) []consensus.Action { return s.script() }

func (s *stub) OnEnvelope(consensus.Time, *consensus.Envelope) []consensus.Action {
	return s.script()
}

func (s *stub) OnTimer(consensus.Time, consensus.TimerID) []consensus.Action { return s.script() }

func (s *stub) OnRequest(consensus.Time, *types.Transaction) []consensus.Action {
	return s.script()
}

func (s *stub) OnCommitApplied(consensus.Time) []consensus.Action {
	s.notified++
	return s.script()
}

// shape names an action's type, message kind and audience.
func shape(a consensus.Action) string {
	switch a := a.(type) {
	case consensus.Broadcast:
		return fmt.Sprintf("broadcast %v to %d", a.Env.MsgKind, len(a.To))
	case consensus.Send:
		return fmt.Sprintf("send %v", a.Env.MsgKind)
	}
	return fmt.Sprintf("%T", a)
}

func shapes(acts []consensus.Action) []string {
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = shape(a)
	}
	return out
}

// resealed checks env's seal from scratch — not the memo Seal leaves —
// and decodes its body into dst.
func resealed(t *testing.T, env *consensus.Envelope, dst interface {
	Kind() consensus.MsgKind
	codec.Unmarshaler
}) {
	t.Helper()
	fresh := &consensus.Envelope{MsgKind: env.MsgKind, From: env.From, FromPub: env.FromPub, Body: env.Body, Signature: env.Signature}
	if err := consensus.Open(fresh, dst.Kind(), dst); err != nil {
		t.Fatalf("forged %v is not validly sealed: %v", env.MsgKind, err)
	}
	if env.From != stubKey.Address() {
		t.Fatalf("forged %v sealed by %s, want the adversary's key", env.MsgKind, env.From.Short())
	}
}

func TestWrap(t *testing.T) {
	inner := &stub{}
	honest := inner.script()
	origSlot, _ := consensus.PeekSlot(honest[1].(consensus.Broadcast).Env)

	cases := []struct {
		name  string
		fault Fault
		want  []string
		check func(t *testing.T, out []consensus.Action)
	}{
		{
			name:  "equivocate",
			fault: FaultEquivocate,
			want: []string{"send pre-prepare", "send pre-prepare", "send pre-prepare", "send pre-prepare",
				"broadcast prepare to 4", "broadcast commit to 4", "send block-sync", "consensus.StartTimer"},
			check: func(t *testing.T, out []consensus.Action) {
				var digests [4]gcrypto.Hash
				for i := range 4 {
					send := out[i].(consensus.Send)
					if send.To != stubPeers[i] {
						t.Fatalf("send %d goes to %s, want peer %d", i, send.To.Short(), i)
					}
					var pp pbft.PrePrepare
					resealed(t, send.Env, &pp)
					if pp.Digest != pp.Header.Hash() || pp.Seq != 5 || pp.Era != 1 {
						t.Fatalf("send %d proposes slot %+v over a header hashing to %x", i, pp.SlotHeader, pp.Header.Hash())
					}
					digests[i] = pp.Digest
				}
				if digests[0] != digests[1] || digests[2] != digests[3] || digests[0] == digests[2] {
					t.Fatalf("want two halves with different proposals, got digests %x", digests)
				}
			},
		},
		{
			name:  "withhold commits",
			fault: FaultWithholdVotes,
			want:  []string{"broadcast pre-prepare to 4", "broadcast prepare to 4", "send block-sync", "consensus.StartTimer"},
			check: func(t *testing.T, out []consensus.Action) {
				keep := []consensus.Action{honest[0], honest[1], honest[3], honest[4]}
				if !reflect.DeepEqual(out, keep) {
					t.Fatal("withholding changed more than the commit broadcast")
				}
			},
		},
		{
			name:  "double vote",
			fault: FaultDoubleVote,
			want: []string{"broadcast pre-prepare to 4",
				"broadcast prepare to 4", "send prepare", "send prepare", "send prepare", "send prepare",
				"broadcast commit to 4", "send commit", "send commit", "send commit", "send commit",
				"send block-sync", "consensus.StartTimer"},
			check: func(t *testing.T, out []consensus.Action) {
				for _, first := range []int{2, 7} {
					for i := range 4 {
						send := out[first+i].(consensus.Send)
						if send.To != stubPeers[i] {
							t.Fatalf("twin %d goes to %s, want peer %d", first+i, send.To.Short(), i)
						}
						var vote pbft.Prepare
						if send.Env.MsgKind == consensus.KindCommit {
							var c pbft.Commit
							resealed(t, send.Env, &c)
							vote.SlotHeader = c.SlotHeader
						} else {
							resealed(t, send.Env, &vote)
						}
						want := origSlot
						want.Digest[len(want.Digest)-1] ^= 0xff
						if vote.SlotHeader != want {
							t.Fatalf("twin %d votes %+v, want %+v", first+i, vote.SlotHeader, want)
						}
					}
				}
			},
		},
		{
			name:  "snapshot lie",
			fault: FaultSnapshotLie,
			want:  []string{"broadcast pre-prepare to 4", "broadcast prepare to 4", "broadcast commit to 4", "send block-sync", "consensus.StartTimer"},
			check: func(t *testing.T, out []consensus.Action) {
				send := out[3].(consensus.Send)
				if send.To != stubPeers[0] {
					t.Fatalf("lie goes to %s, want peer 0", send.To.Short())
				}
				for _, i := range []int{0, 1, 2, 4} {
					if !reflect.DeepEqual(out[i], honest[i]) {
						t.Fatalf("the snapshot lie changed %s", shape(out[i]))
					}
				}
				var resp core.SnapshotResponse
				resealed(t, send.Env, &resp)
				diff := 0
				for i := range resp.Data {
					if resp.Data[i] != stubSnapshot[i] {
						diff++
					}
				}
				if resp.Height != 4 || len(resp.Data) != len(stubSnapshot) || diff != 1 {
					t.Fatalf("lie ships height %d, %q: want height 4 and one changed byte of %q", resp.Height, resp.Data, stubSnapshot)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inner := &stub{}
			eng := Wrap(tc.fault, inner, stubKey)
			steps := map[string]func() []consensus.Action{
				"Init":       func() []consensus.Action { return eng.Init(0) },
				"OnEnvelope": func() []consensus.Action { return eng.OnEnvelope(0, nil) },
				"OnTimer":    func() []consensus.Action { return eng.OnTimer(0, 1) },
				"OnRequest":  func() []consensus.Action { return eng.OnRequest(0, nil) },
				"OnCommitApplied": func() []consensus.Action {
					return eng.(consensus.CommitNotifiable).OnCommitApplied(0)
				},
			}
			for step, run := range steps {
				out := run()
				if got := shapes(out); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("%s: got %q, want %q", step, got, tc.want)
				}
				if tc.check != nil {
					tc.check(t, out)
				}
			}
			if inner.notified != 1 {
				t.Fatalf("inner engine notified of %d applied commits, want 1", inner.notified)
			}
		})
	}

	if eng := Wrap(Honest, inner, stubKey); eng != consensus.Engine(inner) {
		t.Fatalf("Honest wraps the engine in %T, want the engine itself", eng)
	}
	eng := Wrap(FaultSilent, inner, stubKey)
	for _, out := range [][]consensus.Action{eng.Init(0), eng.OnEnvelope(0, nil), eng.OnTimer(0, 1), eng.OnRequest(0, nil)} {
		if len(out) != 0 {
			t.Fatalf("a silent node emits %q", shapes(out))
		}
	}
}
