package ledger

import (
	"testing"
	"time"

	"gpbft/internal/gcrypto"
	"gpbft/internal/types"
)

// TestSameCellAccusesInAddressOrder: three identities report one cell.
// The first two report further apart than SybilWindow, the third between
// them, so it falls within the window of both. Every chain fed the same
// blocks must record the same one evidence record and flag the same
// pair, whatever order a map walk would give.
func TestSameCellAccusesInAddressOrder(t *testing.T) {
	g := testGenesis(t, 4)
	w := g.Policy.SybilWindow
	report := func(key int, ts time.Time) types.Transaction {
		tx := signedTx(key, 0, 1)
		tx.Geo.Timestamp = ts
		tx.Sign(gcrypto.DeterministicKeyPair(key))
		return tx
	}
	txs := []types.Transaction{
		report(10, tableEpoch),
		report(11, tableEpoch.Add(3*w/2)),
		report(12, tableEpoch.Add(3*w/4)),
	}
	var wantID, wantFlagged string
	for run := 0; run < 50; run++ {
		c, err := NewChain(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := range txs {
			if err := c.AddBlock(nextBlock(c, txs[i:i+1], 0)); err != nil {
				t.Fatalf("block %d: %v", i+1, err)
			}
		}
		recs, _ := c.DetectedEvidence(0)
		if len(recs) != 1 {
			t.Fatalf("run %d: %d evidence records, want one", run, len(recs))
		}
		id, flagged := recs[0].ID().String(), ""
		for _, tx := range txs {
			if c.flagged[tx.Sender] {
				flagged += tx.Sender.Short() + " "
			}
		}
		if run == 0 {
			wantID, wantFlagged = id, flagged
			continue
		}
		if id != wantID || flagged != wantFlagged {
			t.Fatalf("run %d: evidence %s flagging %s, run 0: %s flagging %s", run, id, flagged, wantID, wantFlagged)
		}
	}
}
