package gpbft_test

import (
	"testing"
	"time"

	"gpbft"
	"gpbft/internal/gcrypto"
	"gpbft/internal/geo"
	"gpbft/internal/types"
)

func metricsTx(i int) *types.Transaction {
	tx := &types.Transaction{
		Type: types.TxNormal, Nonce: uint64(i), Payload: []byte{byte(i)}, Fee: 1,
		Geo: types.GeoInfo{
			Location:  geo.Point{Lng: 114.18, Lat: 22.3},
			Timestamp: time.Date(2019, 8, 5, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		},
	}
	tx.Sign(gcrypto.DeterministicKeyPair(500 + i))
	return tx
}

func metricsBlock(txs ...*types.Transaction) *types.Block {
	vals := make([]types.Transaction, len(txs))
	for i, tx := range txs {
		vals[i] = *tx
	}
	return types.NewBlock(types.BlockHeader{Height: 1}, vals)
}

func TestMetricsLatencyAccounting(t *testing.T) {
	m := gpbft.NewMetrics()
	tx1, tx2 := metricsTx(1), metricsTx(2)
	m.RecordSubmit(tx1.ID(), 100*time.Millisecond)
	m.RecordSubmit(tx2.ID(), 200*time.Millisecond)
	if m.SubmittedCount() != 2 || m.PendingCount() != 2 {
		t.Fatal("submission accounting wrong")
	}
	// First commit observation stops the clock.
	m.ObserveCommit(350*time.Millisecond, metricsBlock(tx1))
	lats := m.Latencies()
	if len(lats) != 1 || lats[0] != 250*time.Millisecond {
		t.Fatalf("latencies: %v", lats)
	}
	// A second observation of the same block (another node committing)
	// is ignored.
	m.ObserveCommit(500*time.Millisecond, metricsBlock(tx1))
	if len(m.Latencies()) != 1 {
		t.Fatal("re-observation must not double-count")
	}
	if m.CommittedCount() != 1 || m.PendingCount() != 1 {
		t.Fatal("commit accounting wrong")
	}
	// Unsubmitted transactions in a block (e.g. evidence txs) are skipped.
	m.ObserveCommit(600*time.Millisecond, metricsBlock(metricsTx(99)))
	if m.CommittedCount() != 1 {
		t.Fatal("foreign tx counted")
	}
	m.ObserveCommit(900*time.Millisecond, metricsBlock(tx2))
	if m.MeanLatency() != (250*time.Millisecond+700*time.Millisecond)/2 {
		t.Fatalf("mean: %v", m.MeanLatency())
	}
	if m.MaxLatency() != 700*time.Millisecond {
		t.Fatalf("max: %v", m.MaxLatency())
	}
	if m.BlocksObserved() != 4 {
		t.Fatalf("blocks observed: %d", m.BlocksObserved())
	}
}

func TestMetricsDuplicateSubmit(t *testing.T) {
	m := gpbft.NewMetrics()
	tx := metricsTx(1)
	m.RecordSubmit(tx.ID(), 100*time.Millisecond)
	m.RecordSubmit(tx.ID(), 999*time.Millisecond) // retransmission keeps the first clock
	m.ObserveCommit(200*time.Millisecond, metricsBlock(tx))
	if got := m.Latencies()[0]; got != 100*time.Millisecond {
		t.Fatalf("latency %v, want 100ms from first submission", got)
	}
}

// TestMetricsPendingCap is the regression test for unbounded growth of
// Metrics.submits: transactions submitted under overload but never
// committed must not accumulate forever.
func TestMetricsPendingCap(t *testing.T) {
	m := gpbft.NewMetrics()
	m.SetMaxPending(8)
	txs := make([]*types.Transaction, 32)
	for i := range txs {
		txs[i] = metricsTx(i)
		m.RecordSubmit(txs[i].ID(), time.Duration(i)*time.Millisecond)
	}
	if m.PendingCount() != 8 {
		t.Fatalf("pending %d, want capped at 8", m.PendingCount())
	}
	if m.EvictedCount() != 24 {
		t.Fatalf("evicted %d, want 24", m.EvictedCount())
	}
	if m.SubmittedCount() != 32 {
		t.Fatalf("submitted %d, want 32 (eviction must not rewrite history)", m.SubmittedCount())
	}

	// A recent (still-tracked) transaction commits normally.
	m.ObserveCommit(100*time.Millisecond, metricsBlock(txs[31]))
	if m.CommittedCount() != 1 || len(m.Latencies()) != 1 {
		t.Fatal("tracked tx must still measure")
	}
	if m.Latencies()[0] != 100*time.Millisecond-31*time.Millisecond {
		t.Fatalf("latency %v", m.Latencies()[0])
	}
	// An evicted transaction committing later is simply unmeasured.
	m.ObserveCommit(200*time.Millisecond, metricsBlock(txs[0]))
	if m.CommittedCount() != 1 || len(m.Latencies()) != 1 {
		t.Fatal("evicted tx must not produce a latency sample")
	}
	// Re-submitting a committed transaction must not restart its clock.
	m.RecordSubmit(txs[31].ID(), 999*time.Millisecond)
	if m.PendingCount() != 7 {
		t.Fatalf("pending %d after re-submit of committed tx, want 7", m.PendingCount())
	}

	// Sustained churn stays bounded.
	for i := 0; i < 10000; i++ {
		m.RecordSubmit(metricsTx(100+i).ID(), time.Duration(i)*time.Millisecond)
	}
	if m.PendingCount() > 8 {
		t.Fatalf("pending %d after churn, want <= 8", m.PendingCount())
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := gpbft.NewMetrics()
	if m.MeanLatency() != 0 || m.MaxLatency() != 0 || m.Quantile(0.5) != 0 {
		t.Fatal("empty metrics must be zero")
	}
	m.ObserveEraSwitch()
	m.ObserveEraSwitch()
	if m.EraSwitches() != 2 {
		t.Fatal("era switch count wrong")
	}
}
