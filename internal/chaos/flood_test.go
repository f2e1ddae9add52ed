package chaos

import "testing"

// floodOpts is the shared n=7 overload-armor configuration: batch
// blocks so sustained load drains, a per-identity rate limit the
// honest pace (one tx per 200ms step = 5 tx/s) fits under, and a
// bounded pool so a flood shows up as occupancy.
func floodOpts(seed int64) Options {
	return Options{
		Nodes:      7,
		Seed:       seed,
		BatchSize:  8,
		RateLimit:  8,
		MempoolCap: 32,
		FairShare:  8,
	}
}

// One attacker at 5× the honest per-identity rate: honest median
// commit latency must stay within 2× the unloaded baseline while the
// attacker's overflow is turned away at admission.
func TestFloodSingleAttacker(t *testing.T) {
	c, err := New(floodOpts(7001))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunFloodSchedule(1, 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flood report: %+v", rep)
	if rep.RejectedRate == 0 {
		t.Fatal("attacker overflow was never rate-limited")
	}
	if rep.AttackerOffered < 5*25 {
		t.Fatalf("attacker offered only %d txs, want >= 5x honest per-identity load", rep.AttackerOffered)
	}
	if rep.FloodP50 > 2*rep.BaselineP50 {
		t.Fatalf("honest p50 degraded %v -> %v (> 2x baseline)", rep.BaselineP50, rep.FloodP50)
	}
	if rep.HonestCommitted < rep.HonestSubmitted*9/10 {
		t.Fatalf("honest service collapsed: %d/%d committed", rep.HonestCommitted, rep.HonestSubmitted)
	}
}

// A Sybil-style flood: several attacker identities together offering
// an order of magnitude over the honest aggregate. The armor must keep
// honest latency bounded and actively shed or evict attacker load, and
// the run must stay fork-free under the standard invariants.
func TestFloodManyAttackers(t *testing.T) {
	c, err := New(floodOpts(7002))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.RunFloodSchedule(6, 8, 25)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flood report: %+v", rep)
	if rep.RejectedRate == 0 {
		t.Fatal("attacker overflow was never rate-limited")
	}
	if rep.FloodP50 > 2*rep.BaselineP50 {
		t.Fatalf("honest p50 degraded %v -> %v (> 2x baseline)", rep.BaselineP50, rep.FloodP50)
	}
	if rep.HonestCommitted < rep.HonestSubmitted*9/10 {
		t.Fatalf("honest service collapsed: %d/%d committed", rep.HonestCommitted, rep.HonestSubmitted)
	}
	// With six flooders the pool takes real pressure: the shed
	// controller and/or the QoS eviction path must have engaged.
	if rep.Shed == 0 && rep.Evicted == 0 && rep.MaxShedLevel == 0 {
		t.Fatalf("no degradation response under a 6-attacker flood: %+v", rep)
	}
}

// Bursty attackers dump a whole cycle's traffic at once: the token
// bucket absorbs at most one burst and rejects the rest, and honest
// latency still holds.
func TestFloodRequiresRateLimit(t *testing.T) {
	c, err := New(Options{Nodes: 7, Seed: 7003})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunFloodSchedule(1, 5, 5); err == nil {
		t.Fatal("flood schedule must refuse to run without RateLimit")
	}
}
