package ledger

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"gpbft/internal/codec"
	"gpbft/internal/gcrypto"
	"gpbft/internal/shard"
	"gpbft/internal/types"
)

// FuzzDecodeChainState: a chain state the decoder accepts encodes back
// to the same bytes — its digest is the snapshot root a quorum vouches
// for, so one state must have one encoding — and a list whose count
// claims more elements than the bytes left hold at their shortest
// encoding is refused before anything is allocated for it: checked
// first for every list, with as many elements claimed as bytes follow,
// and for whatever the fuzzer finds as an allocation that stays within
// a constant times the input.
func FuzzDecodeChainState(f *testing.F) {
	c, err := NewChain(testGenesis(f, 4))
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := c.AddBlock(nextBlock(c, []types.Transaction{signedTx(0, i, 1)}, 0)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(EncodeChainState(c.ExportState()))
	const claim = 1 << 14
	for _, fill := range []func(st *ChainState, n int){
		func(st *ChainState, n int) { st.Endorsers = make([]types.EndorserInfo, n) },
		func(st *ChainState, n int) { st.Accounts = make([]AccountRecord, n) },
		func(st *ChainState, n int) { st.EverEndorsers = make([]gcrypto.Address, n) },
		func(st *ChainState, n int) { st.Banned = make([]BannedEntry, n) },
		func(st *ChainState, n int) { st.Evidence = make([]gcrypto.Hash, n) },
		func(st *ChainState, n int) { st.Devices = make([]DeviceState, n) },
		func(st *ChainState, n int) { st.Devices = []DeviceState{{Entries: make([]DeviceEntry, n)}} },
		func(st *ChainState, n int) { st.Witnesses = make([]WitnessRecord, n) },
		func(st *ChainState, n int) { st.Balances = make([]BalanceRecord, n) },
		func(st *ChainState, n int) { st.TxIndex = make([]TxIndexRecord, n) },
		func(st *ChainState, n int) { st.Outbound = make([]shard.Receipt, n) },
		func(st *ChainState, n int) { st.Applied = make([]AppliedReceipt, n) },
		func(st *ChainState, n int) { st.Anchors = make([]shard.AnchorRecord, n) },
		func(st *ChainState, n int) { st.AnchorReceipts = make([]shard.Receipt, n) },
	} {
		var none, some ChainState
		fill(&none, 0)
		fill(&some, 3)
		a, b := EncodeChainState(&none), EncodeChainState(&some)
		f.Add(b)
		at := 0
		for a[at] == b[at] {
			at++ // to the list's count
		}
		over := append(binary.AppendUvarint(b[:at:at], claim), make([]byte, claim)...)
		if grew, err := allocated(func() error { _, err := DecodeChainState(over); return err }); err == nil || grew > 64<<10 {
			f.Fatalf("list count at byte %d claiming %d elements in %d bytes: %v after %d bytes allocated", at, claim, claim, err, grew)
		}
		f.Add(over)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := codec.NewReader(data)
		var st ChainState
		grew, err := allocated(func() error { return st.UnmarshalCanonical(r) })
		if grew > uint64(32*len(data)+64<<10) {
			t.Fatalf("allocated %d bytes decoding %d bytes of chain state", grew, len(data))
		}
		if err != nil || r.Finish() != nil {
			return
		}
		if again := EncodeChainState(&st); !bytes.Equal(again, data) {
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
