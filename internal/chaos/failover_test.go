package chaos_test

import (
	"testing"

	"gpbft/internal/chaos"
)

// TestFailoverSchedule crashes the primary of seven replicas under
// steady load with the view-change timeout each replica measures, and
// requires that the crash costs one view change and, from the crash to
// the next commit, less than that timeout plus two of the slowest rounds.
func TestFailoverSchedule(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rep, err := chaos.RunFailoverSchedule(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.ViewChanges != 1 {
			t.Errorf("seed %d: %d view changes, want 1", seed, rep.ViewChanges)
		}
		if bound := rep.Timeout + 2*rep.Round; rep.Gap >= bound {
			t.Errorf("seed %d: %v without a commit, want under %v (timeout %v, slowest round %v)", seed, rep.Gap, bound, rep.Timeout, rep.Round)
		}
		t.Logf("seed %d: gap %v, timeout %v, slowest round %v", seed, rep.Gap, rep.Timeout, rep.Round)
	}
}
