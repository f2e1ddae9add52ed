package transport

import (
	"bytes"
	"testing"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// FuzzReadFrame: a hostile byte stream must never panic the framer nor
// make it allocate unboundedly.
func FuzzReadFrame(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	var good bytes.Buffer
	if err := WriteFrame(&good, consensus.Seal(kp, &pbft.Prepare{SlotHeader: consensus.SlotHeader{Era: 1, Seq: 2}})); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decoded envelope must re-frame successfully.
		var out bytes.Buffer
		if err := WriteFrame(&out, env); err != nil {
			t.Fatalf("re-framing decoded envelope failed: %v", err)
		}
	})
}

// FuzzDecodeHello: hostile hello payloads must never panic the
// handshake decoder, and every accepted hello must re-encode to the
// same bytes (canonical form).
func FuzzDecodeHello(f *testing.F) {
	kp := gcrypto.DeterministicKeyPair(1)
	f.Add(EncodeHello(NewHello(kp)))
	f.Add([]byte(helloMagic))
	f.Add([]byte(helloMagic + "\x01"))
	f.Add(append([]byte(helloMagic+"\x01"), make([]byte, 64)...))
	f.Add(append([]byte(helloMagic), 99))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeHello(h), data) {
			t.Fatal("accepted hello is not canonical")
		}
		_ = h.Verify() // must not panic on arbitrary key/sig lengths
	})
}
