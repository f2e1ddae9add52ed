package consensus

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// FuzzDecodeRelayFrame hammers the relay-frame decoder with mutated
// wire bytes. Anything it accepts must satisfy every structural bound
// (entry count, hop range, decodable non-relay inner envelopes) and —
// like FuzzDecodeEvidence — must re-encode to the exact input bytes:
// the codec rejects non-minimal varints and trailing garbage, so a
// valid frame has one and only one wire form, which is what makes the
// dupemap digest key unambiguous across hops.
func FuzzDecodeRelayFrame(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	mk := func(k MsgKind, data string, hop uint8) RelayEntry {
		env := Seal(kp, &kindPayload{K: k, Data: []byte(data)})
		return RelayEntry{Hop: hop, Wire: EncodeEnvelope(env)}
	}
	f.Add(EncodeRelayBody([]RelayEntry{mk(KindPrepare, "a", 1)}))
	f.Add(EncodeRelayBody([]RelayEntry{
		mk(KindCommit, "b", 2),
		mk(KindViewChange, "c", DefaultMaxRelayHops),
	}))
	f.Add(EncodeRelayBody([]RelayEntry{mk(KindPrePrepare, "d", maxRelayHopBound)}))
	f.Add([]byte("gpbft/relay/v1"))
	f.Add([]byte{0x0e, 'g', 'p', 'b', 'f', 't', '/', 'r', 'e', 'l', 'a', 'y', '/', 'v', '1', 0x01})
	// The cap in entries, with a byte fewer after the count than that
	// many of the shortest entries take (a hop, an envelope's length and
	// bytes): refused at the count, before the batch is allocated.
	over := binary.AppendUvarint(EncodeRelayBody(nil)[:len(EncodeRelayBody(nil))-1], MaxRelayEntries)
	over = append(over, make([]byte, MaxRelayEntries*(2+MinEnvelopeSize)-1)...)
	if _, err := DecodeRelayBody(over); err == nil || !strings.Contains(err.Error(), codec.ErrShortBuffer.Error()) {
		f.Fatalf("%d entries claimed over %d bytes: %v, want a short buffer at the count", MaxRelayEntries, len(over), err)
	}
	f.Add(over)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := DecodeRelayBody(data)
		if err != nil {
			return
		}
		if len(entries) == 0 || len(entries) > MaxRelayEntries {
			t.Fatalf("accepted frame with %d entries", len(entries))
		}
		for i, e := range entries {
			if e.Hop == 0 || e.Hop > maxRelayHopBound {
				t.Fatalf("entry %d: accepted hop %d", i, e.Hop)
			}
			if e.Env == nil {
				t.Fatalf("entry %d: accepted without decoded inner envelope", i)
			}
			if e.Env.MsgKind == KindRelay {
				t.Fatalf("entry %d: accepted nested relay frame", i)
			}
			if reWire := EncodeEnvelope(e.Env); !bytes.Equal(reWire, e.Wire) {
				t.Fatalf("entry %d: inner envelope not in canonical form", i)
			}
		}
		if re := EncodeRelayBody(entries); !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical encoding:\n in: %x\nout: %x", data, re)
		}
	})
}
