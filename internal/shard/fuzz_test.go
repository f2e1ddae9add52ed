package shard

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
)

// shardPayload is what a transfer, a receipt and a region checkpoint
// are to a codec.
type shardPayload interface {
	codec.Marshaler
	UnmarshalCanonical(*codec.Reader) error
}

// FuzzDecodeShardPayload: a transfer, receipt or region checkpoint its
// decoder accepts encodes back to the same bytes — chains commit them,
// and a checkpoint's receipts reach other regions as those bytes — and
// a checkpoint whose count claims more receipts than the bytes left hold
// is refused before anything is allocated for them (checked first; the
// fuzzer's inputs must stay within a constant times their size). The
// first input picks the payload.
func FuzzDecodeShardPayload(f *testing.F) {
	rc := testReceipt(1)
	cp := &RegionCheckpoint{Region: "wecnv", Era: 2, Height: 9, Root: gcrypto.HashBytes([]byte("head")),
		Receipts: []Receipt{testReceipt(1), testReceipt(2)}}
	f.Add(uint8(0), EncodeTransfer(&Transfer{Source: "wecnv", Dest: "wecny", Recipient: rc.Recipient, Amount: 42}))
	f.Add(uint8(1), EncodeReceipt(&rc))
	f.Add(uint8(2), EncodeCheckpoint(cp))
	// As many receipts claimed as bytes follow.
	const claim = 1 << 14
	empty := EncodeCheckpoint(&RegionCheckpoint{Region: "wecnv"})
	over := append(binary.AppendUvarint(empty[:len(empty)-1:len(empty)-1], claim), make([]byte, claim)...)
	if grew, err := allocated(func() error { _, err := DecodeCheckpoint(over); return err }); err == nil || grew > 64<<10 {
		f.Fatalf("checkpoint claiming %d receipts in %d bytes: %v after %d bytes allocated", claim, claim, err, grew)
	}
	f.Add(uint8(2), over)

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		var m shardPayload
		switch which % 3 {
		case 0:
			m = new(Transfer)
		case 1:
			m = new(Receipt)
		default:
			m = new(RegionCheckpoint)
		}
		r := codec.NewReader(data)
		grew, err := allocated(func() error { return m.UnmarshalCanonical(r) })
		if grew > uint64(32*len(data)+64<<10) {
			t.Fatalf("allocated %d bytes decoding %d bytes", grew, len(data))
		}
		if err != nil || r.Finish() != nil {
			return
		}
		if again := codec.Encode(m); !bytes.Equal(again, data) {
			t.Fatalf("decode/encode not canonical:\n in:  %x\n out: %x", data, again)
		}
	})
}

// allocated runs decode and reports what it allocated.
func allocated(decode func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}
