package consensus

import (
	"bytes"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// slotPayload is a slot header under any kind: what pbft's prepare and
// commit are, without importing pbft.
type slotPayload struct {
	SlotHeader
	kind MsgKind
}

func (p *slotPayload) Kind() MsgKind { return p.kind }

// TestCommitSealIsCertificateVote pins the one format two packages know:
// the bytes Seal signs for a commit are the bytes Certificate.Verify
// rebuilds from a block and its certificate. A prepare for the same slot
// and digest signs other bytes.
func TestCommitSealIsCertificateVote(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(5)
	h := SlotHeader{Era: 3, View: 130, Seq: 1 << 20, Digest: gcrypto.HashBytes([]byte("block"))}
	commit := Seal(kp, &slotPayload{h, KindCommit})
	rebuilt := types.CommitVoteBytes(kp.Address(), h.Era, h.View, h.Seq, h.Digest)
	if signed := envelopeDigest(KindCommit, commit.From, commit.Body); !bytes.Equal(signed, rebuilt) {
		t.Fatalf("Seal signs\n%x\nCertificate.Verify rebuilds\n%x", signed, rebuilt)
	}
	if err := gcrypto.Verify(kp.Public(), kp.Address(), rebuilt, commit.Signature); err != nil {
		t.Fatalf("a commit's seal is not a certificate vote: %v", err)
	}
	prepare := Seal(kp, &slotPayload{h, KindPrepare})
	if gcrypto.Verify(kp.Public(), kp.Address(), rebuilt, prepare.Signature) == nil {
		t.Fatal("a prepare's seal passes as a commit vote")
	}
}

func TestSlotHeaderPeek(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(6)
	h := SlotHeader{Era: 200, View: 1, Seq: 70000, Digest: gcrypto.Hash{0xab}}
	body := codec.Encode(&h)
	if want := 2 + 1 + 3 + len(h.Digest); len(body) != want {
		t.Fatalf("header is %d bytes, want %d", len(body), want)
	}
	for _, kind := range []MsgKind{KindPrePrepare, KindPrepare, KindCommit, KindCheckpoint} {
		// Whatever follows the header (a pre-prepare's block) is not read.
		env := Seal(kp, &slotPayload{h, kind})
		env.Body = append(env.Body, 0xff, 0xff)
		if got, ok := PeekSlot(env); !ok || got != h {
			t.Errorf("%v: PeekSlot = %+v, %v", kind, got, ok)
		}
		if era, ok := PeekEra(env); !ok || era != h.Era {
			t.Errorf("%v: PeekEra = %d, %v", kind, era, ok)
		}
	}
	// A view change leads with its era and has no slot.
	vc := &Envelope{MsgKind: KindViewChange, Body: body}
	if era, ok := PeekEra(vc); !ok || era != h.Era {
		t.Errorf("view change: PeekEra = %d, %v", era, ok)
	}
	if _, ok := PeekSlot(vc); ok {
		t.Error("view change has a slot header")
	}
	if _, ok := PeekEra(&Envelope{MsgKind: KindRequest, Body: body}); ok {
		t.Error("a request belongs to an era")
	}
	// Padded slot numbers and a short digest are refused.
	padded := append([]byte{0x80, 0x00}, body[2:]...)
	for name, b := range map[string][]byte{"padded era": padded, "short": body[:len(body)-1], "empty": nil} {
		if _, ok := PeekSlot(&Envelope{MsgKind: KindCommit, Body: b}); ok {
			t.Errorf("%s: PeekSlot accepted", name)
		}
	}
	if _, ok := PeekEra(&Envelope{MsgKind: KindCommit, Body: padded}); ok {
		t.Error("PeekEra accepted a padded era")
	}
}
