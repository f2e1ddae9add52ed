package transport

import (
	"errors"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// The identity handshake: the first frame a dialing endpoint sends is a
// signed hello that binds the TCP connection to a chain address. Once a
// hello is verified, the accepting side attributes the connection to
// that peer and reuses it for its own outbound traffic, so a pair of
// endorsers shares one TCP connection instead of two. Connections whose
// first frame is a plain envelope (IoT clients, older peers) are still
// accepted; they simply stay unattributed and read-only.
const (
	// helloMagic prefixes a hello frame payload; it cannot collide with
	// an envelope, whose first byte is a small MsgKind.
	helloMagic = "GPBH"
	// helloVersion is bumped on every incompatible change to what a
	// connection carries — the hello layout, or the envelopes behind it —
	// so that peers of different versions refuse each other here and do
	// not silently drop each other's votes. 2: slot headers as uvarints,
	// a commit's seal as its certificate vote.
	helloVersion = 2
	// MaxHello bounds a hello frame payload; anything larger is a
	// protocol violation and the connection is dropped.
	MaxHello = 1024
)

// Errors returned by hello encoding and verification.
var (
	ErrHelloMalformed = errors.New("transport: malformed hello frame")
	ErrHelloTooLarge  = errors.New("transport: hello frame exceeds limit")
	ErrHelloVersion   = errors.New("transport: unsupported hello version")
)

// Hello is the identity frame sent immediately after dialing.
type Hello struct {
	Addr gcrypto.Address
	Pub  []byte
	Sig  []byte
}

func helloDigest(addr gcrypto.Address) []byte {
	w := codec.NewWriter(64)
	w.String("gpbft/hello/v1")
	w.Raw(addr[:])
	return w.Bytes()
}

// NewHello builds a signed hello for the given identity.
func NewHello(kp *gcrypto.KeyPair) *Hello {
	return &Hello{
		Addr: kp.Address(),
		Pub:  append([]byte(nil), kp.Public()...),
		Sig:  kp.Sign(helloDigest(kp.Address())),
	}
}

// Verify checks the hello signature and that the public key hashes to
// the claimed address, so a peer cannot claim another node's identity
// without its signing key.
func (h *Hello) Verify() error {
	return gcrypto.Verify(h.Pub, h.Addr, helloDigest(h.Addr), h.Sig)
}

// EncodeHello returns the hello frame payload.
func EncodeHello(h *Hello) []byte {
	w := codec.NewWriter(128)
	w.Raw([]byte(helloMagic))
	w.Uint8(helloVersion)
	w.Raw(h.Addr[:])
	w.WriteBytes(h.Pub)
	w.WriteBytes(h.Sig)
	return w.Bytes()
}

// isHello reports whether a frame payload carries the hello magic.
func isHello(payload []byte) bool {
	return len(payload) >= len(helloMagic) && string(payload[:len(helloMagic)]) == helloMagic
}

// DecodeHello parses a hello frame payload. It does not verify the
// signature; call Verify on the result.
func DecodeHello(b []byte) (*Hello, error) {
	if len(b) > MaxHello {
		return nil, ErrHelloTooLarge
	}
	if !isHello(b) {
		return nil, ErrHelloMalformed
	}
	r := codec.NewReader(b[len(helloMagic):])
	if v := r.Uint8(); v != helloVersion {
		if r.Err() == nil {
			return nil, ErrHelloVersion
		}
	}
	var h Hello
	r.RawInto(h.Addr[:])
	h.Pub = r.ReadBytes()
	h.Sig = r.ReadBytes()
	if err := r.Finish(); err != nil {
		return nil, ErrHelloMalformed
	}
	return &h, nil
}
