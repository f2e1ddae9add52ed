package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/pbft"
)

// A header claiming MaxFrame followed by nothing must not allocate the
// claim: the buffer grows only as payload bytes arrive, so one 4-byte
// header on an unauthenticated connection cannot pin 32 MiB.
func TestFrameHeaderAllocatesOnlyWhatArrives(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readRawFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a bare MaxFrame header allocated %d bytes", grew)
	}
}

// A payload larger than the first allocation arrives whole, and one cut
// short past that point fails.
func TestFrameLargePayload(t *testing.T) {
	payload := make([]byte, 3*frameChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	got, err := readRawFrame(bytes.NewReader(wire))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("large payload mangled (err %v)", err)
	}
	if _, err := readRawFrame(bytes.NewReader(wire[:len(wire)-1])); err != io.ErrUnexpectedEOF {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
}

// TestBufferedReadsKeepOrder: a peer that writes its hello and several
// frames in one write, then one more frame split across two writes, has
// every frame delivered in order and attributed to it — the hello and
// the frames behind it share the connection's read buffer.
func TestBufferedReadsKeepOrder(t *testing.T) {
	kpB := gcrypto.DeterministicKeyPair(2)
	b, err := New(Config{Listen: "127.0.0.1:0", Key: kpB})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	kpA, kpC := gcrypto.DeterministicKeyPair(1), gcrypto.DeterministicKeyPair(9)
	const n = 8
	var burst bytes.Buffer
	if err := writeRawFrame(&burst, EncodeHello(NewHello(kpA))); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		if err := WriteFrame(&burst, pbft.NewRequest(kpC, mkClientTx(kpC, i))); err != nil {
			t.Fatal(err)
		}
	}
	var last bytes.Buffer
	if err := WriteFrame(&last, pbft.NewRequest(kpC, mkClientTx(kpC, n+1))); err != nil {
		t.Fatal(err)
	}

	conn := dialRaw(t, b.ListenAddr())
	defer conn.Close()
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	split := last.Len() / 2
	if _, err := conn.Write(last.Bytes()[:split]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the two halves arrive apart
	if _, err := conn.Write(last.Bytes()[split:]); err != nil {
		t.Fatal(err)
	}

	for want := uint64(1); want <= n+1; want++ {
		select {
		case env := <-b.Incoming():
			var req pbft.Request
			if err := consensus.OpenUnverified(env, consensus.KindRequest, &req); err != nil {
				t.Fatal(err)
			}
			if req.Tx.Nonce != want || env.From != kpA.Address() {
				t.Fatalf("got nonce %d from %s, want nonce %d from %s",
					req.Tx.Nonce, env.From.Short(), want, kpA.Address().Short())
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered", want)
		}
	}
}
