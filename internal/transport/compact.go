package transport

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"

	"gpbft/internal/gcrypto"
)

// Sender-identity elision. A canonical envelope opens with its kind
// byte and then the sender's identity, From‖len‖FromPub: 53 bytes that
// are the same on almost every frame a connection carries, because a
// node mostly sends envelopes it sealed itself, and that weigh a third
// of a vote frame. Per connection and direction, the writer sends that
// prefix only when it differs from the one on the previous envelope
// frame it wrote; otherwise it writes a compact frame
//
//	marker(0x80) ‖ kind ‖ rest
//
// where rest is everything after the prefix (body and signature, each
// length-prefixed as in the canonical form). The reader keeps the last
// prefix it saw on the connection and splices it back, so what reaches
// DecodeEnvelope is byte for byte the canonical encoding. No envelope
// kind reaches 0x80, so the first payload byte tells the two forms
// apart. The state lives and dies with the connection; a compact frame
// on a connection that has carried no full frame is a protocol
// violation. Only this wire hop changes: signatures, evidence, WAL
// proofs and relay entries keep the canonical bytes.
const (
	compactMarker   = 0x80
	senderPrefixLen = gcrypto.AddressSize + 1 + ed25519.PublicKeySize
)

// errCompactFrame reports a compact frame that cannot be expanded.
var errCompactFrame = errors.New("transport: compact frame without a sender prefix to restore")

// senderPrefix returns the identity prefix of canonical envelope bytes,
// or nil when they do not carry the standard one (a relay frame has no
// public key; garbage may have anything). Frames without it always
// travel in full and leave the connection's state alone.
func senderPrefix(p []byte) []byte {
	const pubLenAt = 1 + gcrypto.AddressSize
	if len(p) < 1+senderPrefixLen || p[0] >= compactMarker || p[pubLenAt] != ed25519.PublicKeySize {
		return nil
	}
	return p[1 : 1+senderPrefixLen]
}

// prefixState is one direction of one connection: the sender prefix of
// the last full envelope frame that carried one.
type prefixState struct {
	last [senderPrefixLen]byte
	have bool
}

// appendFrame appends the length-prefixed wire frame for the canonical
// envelope bytes p to buf — compact when p repeats the connection's
// current sender prefix, full otherwise.
func (s *prefixState) appendFrame(buf, p []byte) []byte {
	var hdr [4]byte
	pre := senderPrefix(p)
	if pre != nil && s.have && bytes.Equal(pre, s.last[:]) {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(p)-senderPrefixLen+1))
		buf = append(buf, hdr[:]...)
		buf = append(buf, compactMarker, p[0])
		return append(buf, p[1+senderPrefixLen:]...)
	}
	if pre != nil {
		s.have = true
		copy(s.last[:], pre)
	}
	binary.BigEndian.PutUint32(hdr[:], uint32(len(p)))
	buf = append(buf, hdr[:]...)
	return append(buf, p...)
}

// expand returns the canonical envelope bytes for one received frame
// payload: a full frame as is (remembering its prefix), a compact one
// with the remembered prefix spliced back in.
func (s *prefixState) expand(wire []byte) ([]byte, error) {
	if len(wire) == 0 || wire[0] < compactMarker {
		if pre := senderPrefix(wire); pre != nil {
			s.have = true
			copy(s.last[:], pre)
		}
		return wire, nil
	}
	if !s.have || len(wire) < 2 || wire[1] >= compactMarker {
		return nil, errCompactFrame
	}
	p := make([]byte, 0, len(wire)-1+senderPrefixLen)
	p = append(p, wire[1])
	p = append(p, s.last[:]...)
	return append(p, wire[2:]...), nil
}
