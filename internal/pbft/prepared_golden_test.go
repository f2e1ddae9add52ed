package pbft_test

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/pbft"
	"gpbft/internal/types"
)

// TestPreparedRecordGolden pins the data of a prepared WAL record, the
// one format that lives inside this package, to its line in the wire
// golden file (internal/codec's TestWireGolden holds the rest): the
// encoder reproduces it, and the bytes read back as RecoverState reads
// them encode to it again.
func TestPreparedRecordGolden(t *testing.T) {
	const name = "pbft/prepared-record-data"
	want := goldenLine(t, "../codec/testdata/wire.golden", name)

	kps := []*gcrypto.KeyPair{gcrypto.DeterministicKeyPair(0), gcrypto.DeterministicKeyPair(1), gcrypto.DeterministicKeyPair(2)}
	at := time.Unix(1_600_000_000, 0).UTC()
	var txs []types.Transaction
	for i, kp := range kps[:2] {
		tx := types.Transaction{Type: types.TxNormal, Nonce: uint64(i), Payload: []byte{byte(i)}, Fee: 1,
			Geo: types.GeoInfo{Location: geo.Point{Lng: 114.1795, Lat: 22.3193}, Timestamp: at}}
		tx.Sign(kp)
		txs = append(txs, tx)
	}
	b := types.NewBlock(types.BlockHeader{Height: 7, Era: 3, View: 2, Seq: 7, Proposer: kps[0].Address(), Timestamp: at}, txs)
	slot := consensus.SlotHeader{Era: 3, View: 2, Seq: 7, Digest: b.Hash()}
	seal := func(i int, p consensus.Payload) []byte {
		env := consensus.Seal(kps[i], p)
		env.Sender = uint64(i)
		return consensus.EncodeEnvelope(env)
	}
	proof := &pbft.PreparedProof{
		Seq: 7, View: 2, Digest: b.Hash(),
		PrePrepareEnv: seal(0, pbft.NewPrePrepare(3, 2, 7, b)),
		PrepareEnvs:   [][]byte{seal(1, &pbft.Prepare{SlotHeader: slot}), seal(2, &pbft.Prepare{SlotHeader: slot})},
	}

	got := pbft.PreparedData(proof, b)
	if want == nil {
		t.Fatalf("no golden line for %s; its bytes are:\n%s %x", name, name, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoding moved\n got:  %x\n want: %x", got, want)
	}
	again, ok := pbft.RecoveredPrepared(want)
	if !ok {
		t.Fatal("golden bytes do not recover a prepared slot")
	}
	if !bytes.Equal(again, want) {
		t.Errorf("recover then encode moved the bytes\n got:  %x\n want: %x", again, want)
	}
}

// goldenLine returns the bytes of the named line of a golden file, nil
// when it has none.
func goldenLine(t *testing.T, path, name string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if hexed, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			b, err := hex.DecodeString(hexed)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return nil
}
