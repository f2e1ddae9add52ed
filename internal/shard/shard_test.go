package shard

import (
	"errors"
	"strings"
	"testing"

	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
)

var testSeed = geo.NewRegion(geo.Point{Lng: 114.175, Lat: 22.300}, geo.Point{Lng: 114.185, Lat: 22.310})

func TestPartitionAndRouter(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9} {
		prefixes, err := Partition(testSeed, DefaultPrefixLen, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if len(prefixes) != n {
			t.Fatalf("Partition(%d) returned %d prefixes", n, len(prefixes))
		}
		router, err := NewRouter(prefixes)
		if err != nil {
			t.Fatalf("NewRouter: %v", err)
		}
		for i, p := range prefixes {
			reg, err := RegionOf(p)
			if err != nil {
				t.Fatalf("RegionOf(%q): %v", p, err)
			}
			// The cell's own centre must route back to the cell.
			if got, ok := router.Route(reg.Center()); !ok || got != i {
				t.Fatalf("Route(center of %q) = %d, %v; want %d", p, got, ok, i)
			}
			if got, ok := router.RouteKey(p); !ok || got != i {
				t.Fatalf("RouteKey(%q) = %d, %v; want %d", p, got, ok, i)
			}
		}
	}
}

func TestPartitionBounds(t *testing.T) {
	if _, err := Partition(testSeed, DefaultPrefixLen, MaxRegions+1); err == nil {
		t.Fatal("Partition beyond MaxRegions accepted")
	}
	if _, err := Partition(testSeed, 0, 2); err == nil {
		t.Fatal("Partition with zero prefix length accepted")
	}
	if _, err := KeyOf(geo.Point{}, geo.MaxGeohashPrecision+1); !errors.Is(err, ErrBadPrefixLen) {
		t.Fatalf("KeyOf over-precision: %v", err)
	}
}

func TestBoundCoversAllCells(t *testing.T) {
	prefixes, err := Partition(testSeed, DefaultPrefixLen, 4)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Bound(prefixes)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prefixes {
		reg, _ := RegionOf(p)
		if !bound.Contains(reg.Center()) {
			t.Fatalf("bound %+v misses centre of %q", bound, p)
		}
	}
}

func testReceipt(b byte) Receipt {
	var id gcrypto.Hash
	id[0] = b
	var rcpt gcrypto.Address
	rcpt[0] = 0xAA
	return Receipt{ID: id, Source: "wecnv", Dest: "wecny", Recipient: rcpt, Amount: 7, LockHeight: 3}
}

func TestTransferCodecRoundTrip(t *testing.T) {
	var rcpt gcrypto.Address
	rcpt[3] = 9
	in := &Transfer{Source: "wecnv", Dest: "wecny", Recipient: rcpt, Amount: 42}
	out, err := DecodeTransfer(EncodeTransfer(in))
	if err != nil {
		t.Fatal(err)
	}
	if *out != *in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	bad := *in
	bad.Dest = bad.Source
	if _, err := DecodeTransfer(EncodeTransfer(&bad)); err == nil {
		t.Fatal("self-transfer decoded")
	}
	if _, err := DecodeTransfer([]byte("junk")); err == nil {
		t.Fatal("junk decoded")
	}
}

func TestReceiptCodecRoundTrip(t *testing.T) {
	in := testReceipt(1)
	out, err := DecodeReceipt(EncodeReceipt(&in))
	if err != nil {
		t.Fatal(err)
	}
	if *out != in {
		t.Fatalf("round trip mismatch")
	}
	bad := in
	bad.Amount = 0
	if _, err := DecodeReceipt(EncodeReceipt(&bad)); err == nil {
		t.Fatal("zero-amount receipt decoded")
	}
	if n := len(EncodeReceipt(&Receipt{})); n != MinReceiptSize {
		t.Fatalf("shortest receipt encodes to %d bytes, MinReceiptSize is %d", n, MinReceiptSize)
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	root := gcrypto.HashBytes([]byte("head"))
	in := &RegionCheckpoint{
		Region:   "wecnv",
		Era:      2,
		Height:   9,
		Root:     root,
		Receipts: []Receipt{testReceipt(1), testReceipt(2)},
	}
	out, err := DecodeCheckpoint(EncodeCheckpoint(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Region != in.Region || out.Height != in.Height || out.Root != in.Root || len(out.Receipts) != 2 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	// A receipt from a foreign region cannot ride a checkpoint.
	foreign := *in
	foreign.Receipts = []Receipt{{ID: gcrypto.HashBytes([]byte("x")), Source: "wecny", Dest: "wecnv",
		Recipient: testReceipt(0).Recipient, Amount: 1, LockHeight: 1}}
	if _, err := DecodeCheckpoint(EncodeCheckpoint(&foreign)); err == nil ||
		!strings.Contains(err.Error(), "foreign region") {
		t.Fatalf("foreign receipt accepted: %v", err)
	}
}

func TestAnchorIndexForkDetection(t *testing.T) {
	a := NewAnchorIndex()
	cp := &RegionCheckpoint{Region: "wecnv", Era: 1, Height: 5, Root: gcrypto.HashBytes([]byte("a"))}
	if err := a.Apply(cp); err != nil {
		t.Fatal(err)
	}
	// Same height, same root: idempotent.
	if err := a.Apply(cp); err != nil {
		t.Fatalf("idempotent re-apply: %v", err)
	}
	// Same height, different root: fork.
	fork := *cp
	fork.Root = gcrypto.HashBytes([]byte("b"))
	if err := a.Apply(&fork); !errors.Is(err, ErrAnchorFork) {
		t.Fatalf("fork not detected: %v", err)
	}
	if err := a.Check(&fork); !errors.Is(err, ErrAnchorFork) {
		t.Fatalf("Check missed fork: %v", err)
	}
	// Advance, then a stale-but-consistent checkpoint is a no-op.
	next := &RegionCheckpoint{Region: "wecnv", Era: 1, Height: 7, Root: gcrypto.HashBytes([]byte("c"))}
	if err := a.Apply(next); err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(cp); err != nil {
		t.Fatalf("stale consistent checkpoint: %v", err)
	}
	if pt, ok := a.Latest("wecnv"); !ok || pt.Height != 7 {
		t.Fatalf("latest = %+v, %v", pt, ok)
	}
}

func TestAnchorIndexReceiptsAndExport(t *testing.T) {
	a := NewAnchorIndex()
	r1, r2 := testReceipt(1), testReceipt(2)
	cp := &RegionCheckpoint{Region: "wecnv", Era: 0, Height: 4, Root: gcrypto.HashBytes([]byte("r")),
		Receipts: []Receipt{r1, r2}}
	if err := a.Apply(cp); err != nil {
		t.Fatal(err)
	}
	// Receipts re-anchored by a later checkpoint are not duplicated.
	cp2 := &RegionCheckpoint{Region: "wecnv", Era: 0, Height: 6, Root: gcrypto.HashBytes([]byte("r2")),
		Receipts: []Receipt{r2}}
	if err := a.Apply(cp2); err != nil {
		t.Fatal(err)
	}
	if !a.Covered(r1.ID) || !a.Covered(r2.ID) {
		t.Fatal("receipts not covered")
	}
	if got := a.Receipts(); len(got) != 2 || got[0].ID != r1.ID || got[1].ID != r2.ID {
		t.Fatalf("receipt order: %+v", got)
	}
	recs, rcs := a.Export()
	b := RestoreAnchorIndex(recs, rcs)
	if !a.Equal(b) {
		t.Fatal("export/restore not equal")
	}
	if pt, ok := b.Latest("wecnv"); !ok || pt.Height != 6 {
		t.Fatalf("restored latest = %+v, %v", pt, ok)
	}
}

func TestAnchorHistoryPruning(t *testing.T) {
	a := NewAnchorIndex()
	for h := uint64(1); h <= anchorHistoryDepth+10; h++ {
		cp := &RegionCheckpoint{Region: "wecnv", Height: h, Root: gcrypto.HashBytes([]byte{byte(h), byte(h >> 8)})}
		if err := a.Apply(cp); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(a.history["wecnv"]); n > anchorHistoryDepth {
		t.Fatalf("history retained %d rows", n)
	}
	// A conflicting root below the retained window is accepted (no-op),
	// inside the window it is refused.
	old := &RegionCheckpoint{Region: "wecnv", Height: 1, Root: gcrypto.HashBytes([]byte("other"))}
	if err := a.Check(old); err != nil {
		t.Fatalf("below-window conflict should pass Check: %v", err)
	}
	recent := &RegionCheckpoint{Region: "wecnv", Height: anchorHistoryDepth + 9, Root: gcrypto.HashBytes([]byte("other"))}
	if err := a.Check(recent); !errors.Is(err, ErrAnchorFork) {
		t.Fatalf("in-window conflict missed: %v", err)
	}
	// Applying the below-window checkpoint records nothing: its
	// original row was pruned, so its root can no longer be adjudicated
	// and must not re-enter the fork surface — but any receipts it
	// carries still merge (coverage is deduplicated by ID).
	old.Receipts = []Receipt{testReceipt(77)}
	if err := a.Apply(old); err != nil {
		t.Fatalf("below-window apply: %v", err)
	}
	if _, ok := a.RootAt("wecnv", 1); ok {
		t.Fatal("below-window root was recorded")
	}
	if !a.Covered(old.Receipts[0].ID) {
		t.Fatal("below-window receipts not merged")
	}
	if pt, _ := a.Latest("wecnv"); pt.Height != anchorHistoryDepth+10 {
		t.Fatalf("latest regressed to %d", pt.Height)
	}
}
