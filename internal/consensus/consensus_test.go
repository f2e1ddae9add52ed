package consensus

import (
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

// fakePayload is a minimal Payload for envelope tests.
type fakePayload struct {
	N uint64
	S string
}

func (p *fakePayload) Kind() MsgKind { return KindRequest }

func (p *fakePayload) MarshalCanonical(w *codec.Writer) {
	w.Uint64(p.N)
	w.String(p.S)
}

func (p *fakePayload) UnmarshalCanonical(r *codec.Reader) error {
	p.N = r.Uint64()
	p.S = r.ReadString()
	return r.Err()
}

func TestEnvelopeSealVerifyOpen(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	env := Seal(kp, &fakePayload{N: 42, S: "hello"})
	if err := env.Verify(); err != nil {
		t.Fatal(err)
	}
	var got fakePayload
	if err := Open(env, KindRequest, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != 42 || got.S != "hello" {
		t.Fatalf("decoded %+v", got)
	}
}

func TestEnvelopeTamperDetected(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	env := Seal(kp, &fakePayload{N: 1, S: "x"})

	bad := *env
	bad.Body = append([]byte(nil), env.Body...)
	bad.Body[0] ^= 0xFF
	if bad.Verify() == nil {
		t.Error("body tamper must fail")
	}

	bad = *env
	bad.MsgKind = KindCommit
	if bad.Verify() == nil {
		t.Error("kind tamper must fail")
	}

	bad = *env
	bad.From = gcrypto.DeterministicKeyPair(2).Address()
	if bad.Verify() == nil {
		t.Error("sender tamper must fail")
	}

	bad = *env
	bad.FromPub = []byte{1, 2, 3}
	if bad.Verify() != ErrEnvelopeSig {
		t.Error("short pubkey must fail with ErrEnvelopeSig")
	}
}

// TestEnvelopeWireRoundTrip: each kind names its sender on the wire as
// far as the receiver cannot work it out — a keyed kind by its key, an
// intra-era kind by committee position (resolved against the committee,
// refused out of range), a request by nothing (attributed by channel) —
// and the seal verifies once the sender is named.
func TestEnvelopeWireRoundTrip(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(3)
	com := testCommittee(t, 4)
	roundTrip := func(env *Envelope, identity int) *Envelope {
		t.Helper()
		wire := EncodeEnvelope(env)
		if env.WireSize() != len(wire) {
			t.Errorf("%v: WireSize %d != len %d", env.MsgKind, env.WireSize(), len(wire))
		}
		if want := 1 + identity + 1 + len(env.Body) + 1 + len(env.Signature); len(wire) != want {
			t.Errorf("%v: %d bytes on the wire, want %d", env.MsgKind, len(wire), want)
		}
		got, err := DecodeEnvelope(wire)
		if err != nil {
			t.Fatal(err)
		}
		if got.MsgKind != env.MsgKind {
			t.Fatal("kind mangled in round trip")
		}
		return got
	}

	keyed := roundTrip(Seal(kp, &kindPayload{K: KindEraSwitch, Data: []byte("wire")}), 32)
	if keyed.From != kp.Address() || keyed.Verify() != nil {
		t.Fatal("keyed envelope: sender not derived from its key")
	}

	vote := Seal(kp, &kindPayload{K: KindPrepare, Data: []byte("vote")})
	vote.Sender = uint64(com.IndexOf(kp.Address()))
	got := roundTrip(vote, 1)
	if !got.From.IsZero() || got.Verify() == nil {
		t.Fatal("intra-era envelope named a sender before resolution")
	}
	if !got.Resolve(com) || got.From != kp.Address() || got.Verify() != nil {
		t.Fatal("intra-era envelope did not resolve to its signer")
	}
	stray := roundTrip(vote, 1)
	stray.Sender = uint64(com.Size())
	if stray.Resolve(com) {
		t.Fatal("a position outside the committee resolved")
	}

	req := roundTrip(Unsealed(kp, &fakePayload{N: 9, S: "wire"}), 0)
	if !req.From.IsZero() {
		t.Fatal("request carried a sender")
	}
	relayer := gcrypto.DeterministicKeyPair(4).Address()
	if a := Attributed(req, relayer); a == req || a.From != relayer || !req.From.IsZero() {
		t.Fatal("request not attributed to its channel on a copy")
	}
	if Attributed(got, relayer) != got {
		t.Fatal("an intra-era envelope took its channel's identity")
	}
}

func TestDecodeEnvelopeErrors(t *testing.T) {
	if _, err := DecodeEnvelope(nil); err == nil {
		t.Error("empty buffer must fail")
	}
	kp := gcrypto.DeterministicKeyPair(3)
	wire := EncodeEnvelope(Seal(kp, &fakePayload{}))
	if _, err := DecodeEnvelope(append(wire, 1)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestOpenKindMismatch(t *testing.T) {
	kp := gcrypto.DeterministicKeyPair(1)
	env := Seal(kp, &fakePayload{})
	var got fakePayload
	if err := Open(env, KindCommit, &got); err != ErrEnvelopeKind {
		t.Fatalf("want ErrEnvelopeKind, got %v", err)
	}
}

func TestMsgKindString(t *testing.T) {
	kinds := []MsgKind{KindRequest, KindPrePrepare, KindPrepare, KindCommit,
		KindViewChange, KindNewView, KindEraSwitch, KindBlockSync}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad/dup name %q", k, s)
		}
		seen[s] = true
	}
	if MsgKind(200).String() == "" {
		t.Error("unknown kind should render")
	}
}

func testCommittee(t *testing.T, n int) *Committee {
	t.Helper()
	var infos []types.EndorserInfo
	for i := 0; i < n; i++ {
		kp := gcrypto.DeterministicKeyPair(i)
		infos = append(infos, types.EndorserInfo{
			Address: kp.Address(), PubKey: kp.Public(),
			Geohash: geo.MustEncode(geo.Point{Lng: 114, Lat: 22}, geo.CSCPrecision),
		})
	}
	c, err := NewCommittee(infos)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCommitteeQuorums(t *testing.T) {
	// Quorum is ⌈(n+f+1)/2⌉: equal to 2f+1 at n = 3f+1, larger
	// otherwise so that any two quorums intersect in f+1 members.
	cases := []struct{ n, f, quorum int }{
		{4, 1, 3}, {5, 1, 4}, {6, 1, 4}, {7, 2, 5}, {8, 2, 6}, {10, 3, 7},
		{40, 13, 27}, {202, 67, 135},
	}
	for _, c := range cases {
		com := testCommittee(t, c.n)
		if com.Size() != c.n || com.F() != c.f || com.Quorum() != c.quorum {
			t.Errorf("n=%d: size=%d f=%d quorum=%d, want f=%d quorum=%d",
				c.n, com.Size(), com.F(), com.Quorum(), c.f, c.quorum)
		}
		if com.WeakQuorum() != c.f+1 {
			t.Errorf("n=%d: weak quorum %d", c.n, com.WeakQuorum())
		}
	}
}

func TestCommitteeEmpty(t *testing.T) {
	if _, err := NewCommittee(nil); err != ErrEmptyCommittee {
		t.Fatalf("want ErrEmptyCommittee, got %v", err)
	}
}

func TestCommitteeSortedAndStable(t *testing.T) {
	a := testCommittee(t, 7)
	// Same members shuffled must give identical order.
	infos := a.Members()
	infos[0], infos[3] = infos[3], infos[0]
	b, err := NewCommittee(infos)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Size(); i++ {
		if a.Member(i).Address != b.Member(i).Address {
			t.Fatal("committee order must be canonical")
		}
	}
	addrs := a.Addresses()
	for i := 1; i < len(addrs); i++ {
		if !addrs[i-1].Less(addrs[i]) {
			t.Fatal("addresses must be sorted")
		}
	}
}

func TestCommitteePrimaryRotation(t *testing.T) {
	c := testCommittee(t, 4)
	seen := map[gcrypto.Address]bool{}
	for v := uint64(0); v < 4; v++ {
		seen[c.Primary(v)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("4 views should rotate through 4 primaries, got %d", len(seen))
	}
	if c.Primary(0) != c.Primary(4) {
		t.Fatal("rotation must wrap")
	}
}

func TestCommitteeMembership(t *testing.T) {
	c := testCommittee(t, 4)
	in := gcrypto.DeterministicKeyPair(0).Address()
	out := gcrypto.DeterministicKeyPair(99).Address()
	if !c.IsMember(in) || c.IsMember(out) {
		t.Fatal("membership lookup wrong")
	}
	if c.IndexOf(out) != -1 {
		t.Fatal("IndexOf outsider must be -1")
	}
	if c.IndexOf(in) < 0 || c.Member(c.IndexOf(in)).Address != in {
		t.Fatal("IndexOf/Member inconsistent")
	}
	if c.PubKey(out) != nil {
		t.Fatal("outsider pubkey must be nil")
	}
	if c.PubKey(in) == nil {
		t.Fatal("member pubkey missing")
	}
	if len(c.Keys()) != 4 {
		t.Fatal("Keys() size wrong")
	}
}

func TestCommitteeOthers(t *testing.T) {
	c := testCommittee(t, 4)
	self := gcrypto.DeterministicKeyPair(0).Address()
	others := c.Others(self)
	if len(others) != 3 {
		t.Fatalf("others %d, want 3", len(others))
	}
	for _, a := range others {
		if a == self {
			t.Fatal("others must exclude self")
		}
	}
}

// Property: any two quorums of size 2f+1 intersect in at least f+1
// members — the intersection argument PBFT safety rests on. Verified
// numerically across committee sizes.
func TestQuorumIntersectionProperty(t *testing.T) {
	for n := 4; n <= 202; n++ {
		f := (n - 1) / 3
		quorum := QuorumFor(n)
		// Two quorums can miss each other by at most n - quorum members
		// each; their smallest possible intersection is:
		minIntersect := 2*quorum - n
		if minIntersect < f+1 {
			t.Fatalf("n=%d: two quorums may intersect in %d < f+1=%d members",
				n, minIntersect, f+1)
		}
		// And a quorum must always be formable from honest members.
		honest := n - f
		if honest < quorum {
			t.Fatalf("n=%d: %d honest members cannot form a %d-quorum", n, honest, quorum)
		}
	}
}

func TestQuorumForMatchesCommittee(t *testing.T) {
	for _, n := range []int{4, 5, 6, 7, 9, 40, 202} {
		com := testCommittee(t, n)
		if QuorumFor(n) != com.Quorum() {
			t.Fatalf("n=%d: QuorumFor=%d, Committee.Quorum=%d", n, QuorumFor(n), com.Quorum())
		}
	}
}

func TestOrderedCommitteeRejectsDuplicates(t *testing.T) {
	infos := testCommittee(t, 4).Members()
	infos[1] = infos[0]
	if _, err := NewOrderedCommittee(infos); err == nil {
		t.Fatal("duplicate member must be rejected")
	}
}

func TestOrderedCommitteePreservesOrder(t *testing.T) {
	infos := testCommittee(t, 5).Members()
	// Reverse the canonical order; the ordered constructor must keep it.
	for i, j := 0, len(infos)-1; i < j; i, j = i+1, j-1 {
		infos[i], infos[j] = infos[j], infos[i]
	}
	com, err := NewOrderedCommittee(infos)
	if err != nil {
		t.Fatal(err)
	}
	for i := range infos {
		if com.Member(i).Address != infos[i].Address {
			t.Fatal("ordered committee must preserve the given order")
		}
	}
	if com.Primary(0) != infos[0].Address {
		t.Fatal("primary rotation must follow the given order")
	}
}
