package harness

import (
	"testing"
	"time"

	"gpbft"
)

// TestGossipRequestNeverCostsAViewChange: with the epidemic relay on, a
// request's committee-wide relay reaches each member only with high
// probability, and when the member it missed was the primary, every
// backup sat on the transaction for a progress timeout and then changed
// views (seeds 2 and 4 of these six). The entry node hands the primary
// its copy itself, so a trickle load commits in view 0 and leaves no
// replica behind in a view change of its own.
func TestGossipRequestNeverCostsAViewChange(t *testing.T) {
	const n, total, window = 22, 200, 5 * time.Second
	for seed := int64(1); seed <= 6; seed++ {
		o := gpbft.DefaultOptions(gpbft.GPBFT, n)
		o.Seed = seed
		o.Gossip = true
		o.DisableEraSwitch = true
		cl, err := gpbft.NewCluster(o)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < total; k++ {
			cl.SubmitNodeTx(10*time.Millisecond+time.Duration(k)*window/total, k%n, []byte{byte(k), byte(k >> 8)}, 1)
		}
		cl.RunUntilIdle(5 * time.Minute)

		if got := cl.Metrics().CommittedCount(); got != total {
			t.Fatalf("seed %d: committed %d of %d", seed, got, total)
		}
		for i := 0; i < n; i++ {
			if e := cl.CoreEngine(i).Inner(); e.View() != 0 || e.InViewChange() {
				t.Fatalf("seed %d: node %d ended in view %d (in view change: %v)", seed, i, e.View(), e.InViewChange())
			}
		}
	}
}
