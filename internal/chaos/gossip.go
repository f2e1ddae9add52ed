package chaos

import (
	"fmt"
	"math"
	"time"
)

// GossipReport summarises a gossip chaos schedule: the relay counters
// summed over the committee and the message-complexity measurement the
// schedule asserts against.
type GossipReport struct {
	// Summed over nodes at the end of the fault phase (before the final
	// rolling restart, which rebuilds each node's relay).
	ForwardedFrames  uint64
	ForwardedEntries uint64
	Suppressed       uint64
	Dropped          uint64
	Delivered        uint64

	// Slots is the minimum committed height when the counters were
	// read; FramesPerNodePerSlot = ForwardedFrames / n / Slots.
	Slots                uint64
	FramesPerNodePerSlot float64
	// Fanout is the largest relay fanout in use; Bound = 4·f·log₂(n),
	// the complexity envelope the schedule enforces. All-to-all direct
	// broadcast would need (n−1) sends per broadcast and several
	// broadcasts per slot per node — quadratic in committee size.
	Fanout int
	Bound  float64

	// Victim progress across the partition window: the cut node's
	// committed height when the partition landed and when it healed.
	// Epidemic redundancy must route around the cut, so the victim
	// advances while more than f of its direct links are down.
	VictimHeightAtCut  uint64
	VictimHeightAtHeal uint64
}

// RunGossipSchedule drives the epidemic-dissemination property under
// faults: `steps` of load warm the cluster, then a victim node loses
// direct links to half the committee mid-window — more links than
// direct broadcast could tolerate — while load continues, then the cut
// heals and the run finishes with the standard rolling-restart
// recovery. The usual no-fork/height/durability invariants are checked
// every step, and on top of them the relay counters must stay within
// the f·n forwarding envelope (per-node frames per slot ≤ 4·f·log₂ n),
// not the n² of all-to-all. Requires Options.Gossip.
func (c *Cluster) RunGossipSchedule(steps int) (*GossipReport, error) {
	if !c.opts.Gossip {
		return nil, fmt.Errorf("chaos: gossip schedule needs Options.Gossip")
	}
	if steps < 4 {
		return nil, fmt.Errorf("chaos: gossip schedule needs steps >= 4")
	}
	n := c.opts.Nodes
	load := func(tag string, s int) {
		for i := range c.nodes {
			if !c.crashed[i] {
				c.Submit(i, []byte(fmt.Sprintf("gossip-%s-%d-%d", tag, i, s)))
			}
		}
	}

	// Phase 1: clean warm-up — every node broadcasts through the relay.
	for s := 0; s < steps; s++ {
		load("warm", s)
		c.RunFor(stepInterval)
		if err := c.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("warm step %d: %w", s, err)
		}
	}

	// Phase 2: cut the victim's direct links to half the committee —
	// strictly more than f links, which all-to-all dissemination has no
	// answer to — and keep the load coming. The victim stays
	// fanout-connected through the remaining half, and every relay's
	// random targets include it, so epidemic forwarding routes its
	// traffic around the cut.
	rep := &GossipReport{}
	victim := (c.PrimaryIndex(0) + 1) % n
	rep.VictimHeightAtCut = c.Height(victim)
	cut := 0
	for j := 0; j < n && cut < n/2; j++ {
		if j != victim && j != c.PrimaryIndex(0) {
			c.Partition(victim, j)
			cut++
		}
	}
	for s := 0; s < steps; s++ {
		load("cut", s)
		c.RunFor(stepInterval)
		if err := c.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("partition step %d: %w", s, err)
		}
	}
	rep.VictimHeightAtHeal = c.Height(victim)

	// Phase 3: heal and drain.
	c.HealAll()
	for s := 0; s < steps; s++ {
		load("heal", s)
		c.RunFor(stepInterval)
		if err := c.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("heal step %d: %w", s, err)
		}
	}
	c.RunUntilIdleFor(10 * time.Second)
	if err := c.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	// Read the relay counters before FinalRecovery's rolling restart
	// rebuilds every relay (the dupemap and its counters die with the
	// process, by design).
	for i := range c.nodes {
		st := c.nodes[i].Counters().Relay
		rep.ForwardedFrames += st.ForwardedFrames
		rep.ForwardedEntries += st.ForwardedEntries
		rep.Suppressed += st.Suppressed
		rep.Dropped += st.Dropped
		rep.Delivered += st.Delivered
		rep.Fanout = max(rep.Fanout, st.Fanout)
	}
	rep.Slots = c.MinHeight()
	if rep.Slots == 0 {
		return nil, fmt.Errorf("chaos: gossip schedule committed nothing")
	}
	rep.FramesPerNodePerSlot = float64(rep.ForwardedFrames) / float64(n) / float64(rep.Slots)
	rep.Bound = 4 * float64(rep.Fanout) * math.Log2(float64(n))
	if rep.FramesPerNodePerSlot > rep.Bound {
		return nil, fmt.Errorf("chaos: %.1f relay frames per node per slot exceeds 4·f·log2(n) = %.1f (f=%d, n=%d, slots=%d)",
			rep.FramesPerNodePerSlot, rep.Bound, rep.Fanout, n, rep.Slots)
	}
	if rep.ForwardedFrames == 0 || rep.Delivered == 0 {
		return nil, fmt.Errorf("chaos: gossip schedule never used the relay: %+v", rep)
	}

	return rep, c.FinalRecovery()
}
