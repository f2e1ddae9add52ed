package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
)

// tickLatency delays by a whole number of milliseconds, 0 to 2, so many
// events fall due at the same instant and the seq tiebreak decides.
type tickLatency struct{}

func (tickLatency) Delay(_, _ NodeID, _ int, rng *rand.Rand) time.Duration {
	return time.Duration(rng.Intn(3)) * time.Millisecond
}

// scenario is a random workload over every operation the network
// offers: handlers send, set and cancel timers; scheduled functions
// crash, restart, partition, heal and schedule more functions. Its
// choices come from its own seeded stream, drawn in dispatch order, and
// it logs everything a handler or function sees.
type scenario struct {
	n      *Network
	rng    *rand.Rand
	ids    []NodeID
	envs   []*consensus.Envelope
	names  map[*consensus.Envelope]int
	budget int
	log    []string
}

func newScenario(seed int64) *scenario {
	const size = 6
	s := &scenario{
		n: New(Config{
			Seed:          seed,
			Latency:       tickLatency{},
			ProcTime:      time.Millisecond,
			DropRate:      0.05,
			DuplicateRate: 0.1,
		}),
		rng:    rand.New(rand.NewSource(seed)),
		ids:    ids(size),
		names:  make(map[*consensus.Envelope]int),
		budget: 1500,
	}
	for i := 0; i < 4; i++ {
		e := consensus.Seal(gcrypto.DeterministicKeyPair(i), &votePayload{N: uint64(i)})
		s.envs = append(s.envs, e)
		s.names[e] = i
	}
	for i := range s.ids {
		s.n.AddNode(s.ids[i], s.handler(i))
	}
	for k := 0; k < 40; k++ {
		s.schedule(time.Duration(s.rng.Intn(200)) * time.Millisecond)
	}
	for i := range s.ids {
		s.send(i)
	}
	return s
}

// handler returns node i's handler; a restart gets a fresh one.
func (s *scenario) handler(i int) Handler {
	return &recorder{onMsg: func(now consensus.Time, e *consensus.Envelope) {
		s.log = append(s.log, fmt.Sprintf("%v node %d got envelope %d", now, i, s.names[e]))
		s.act(i)
	}, onTimer: func(now consensus.Time, id consensus.TimerID) {
		s.log = append(s.log, fmt.Sprintf("%v node %d timer %d", now, i, id))
		s.act(i)
	}}
}

func (s *scenario) send(i int) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	s.n.Send(s.ids[i], s.ids[s.rng.Intn(len(s.ids))], s.envs[s.rng.Intn(len(s.envs))])
}

// act is a node's reaction to an event: a send, and often more, so the
// run grows until the send budget is spent.
func (s *scenario) act(i int) {
	s.send(i)
	switch s.rng.Intn(5) {
	case 0, 1:
		s.send(i)
	case 2:
		if s.budget > 0 {
			delay := time.Duration(s.rng.Intn(4)) * time.Millisecond
			s.n.SetTimer(s.ids[i], consensus.TimerID(s.rng.Intn(3)), delay)
		}
	case 3:
		s.n.CancelTimer(s.ids[i], consensus.TimerID(s.rng.Intn(3)))
	}
}

// schedule queues a fault operation at virtual time at. A crash is
// followed by a restart and a partition by its heal a few milliseconds
// later, so the run keeps moving.
func (s *scenario) schedule(at consensus.Time) {
	s.n.Schedule(at, func(now consensus.Time) {
		i, j := s.rng.Intn(len(s.ids)), s.rng.Intn(len(s.ids))
		later := now + time.Duration(1+s.rng.Intn(5))*time.Millisecond
		switch s.rng.Intn(3) {
		case 0:
			s.n.Crash(s.ids[i])
			s.n.Schedule(later, func(consensus.Time) {
				s.n.Restart(s.ids[i], s.handler(i))
				s.send(i)
			})
		case 1:
			s.n.Partition(s.ids[i], s.ids[j])
			s.n.Schedule(later, func(consensus.Time) { s.n.Heal(s.ids[i], s.ids[j]) })
		case 2:
			s.schedule(later)
		}
		s.log = append(s.log, fmt.Sprintf("%v func %d %d", now, i, j))
	})
}

// zeroEventsFree checks that every recycled event was zeroed: a reused
// event must carry nothing from its previous life.
func zeroEventsFree(t *testing.T, n *Network) {
	t.Helper()
	for _, e := range n.free {
		if e.kind != 0 || e.node != nil || e.from != (NodeID{}) || e.env != nil || e.timerID != 0 || e.canceled != nil || e.fn != nil {
			t.Fatalf("free event not zeroed: %+v", *e)
		}
	}
}

// wellFormed checks that a queued event holds exactly its kind's fields.
func wellFormed(t *testing.T, e *event) {
	t.Helper()
	ok := false
	switch e.kind {
	case evArrival, evHandle:
		ok = e.node != nil && e.env != nil && e.canceled == nil && e.fn == nil
	case evTimer:
		ok = e.node != nil && e.env == nil && e.from == (NodeID{}) && e.canceled != nil && e.fn == nil
	case evFunc:
		ok = e.node == nil && e.env == nil && e.canceled == nil && e.fn != nil
	}
	if !ok {
		t.Fatalf("queued event holds fields of another kind: %+v", *e)
	}
}

// TestDispatchOrderMatchesReference runs seeded random scenarios one
// event at a time, as RunUntilIdle does, recording every entry the
// queue ever held and the order they left it in. The order must be the
// reference: all entries sorted by (at, seq). The same seed run through
// RunUntilIdle itself must log the same events.
func TestDispatchOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		s := newScenario(seed)
		n := s.n
		var queued, dispatched []entry
		var seen uint64
		collect := func() {
			for _, x := range n.events {
				if x.seq > seen {
					queued = append(queued, x)
					wellFormed(t, x.ev)
				}
			}
			seen = n.seq
		}
		collect()
		for len(n.events) > 0 {
			x := n.events.pop()
			dispatched = append(dispatched, entry{at: x.at, seq: x.seq})
			if e := x.ev; e.canceled != nil && *e.canceled {
				n.release(e)
			} else {
				n.now = max(n.now, x.at)
				n.dispatch(e)
			}
			zeroEventsFree(t, n)
			collect()
		}
		for i := range queued {
			queued[i].ev = nil
		}
		slices.SortFunc(queued, func(a, b entry) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		if len(dispatched) < 1000 {
			t.Fatalf("seed %d: only %d events; the scenario is too small to say much", seed, len(dispatched))
		}
		if !slices.Equal(dispatched, queued) {
			t.Fatalf("seed %d: dispatch order differs from the (at, seq) reference", seed)
		}

		again := newScenario(seed)
		again.n.RunUntilIdle(time.Hour)
		if !slices.Equal(s.log, again.log) {
			t.Fatalf("seed %d: RunUntilIdle logged %d events, stepping %d, or in another order", seed, len(again.log), len(s.log))
		}
	}
}

// TestReusedEventStartsClean recycles a canceled timer's event into a
// scheduled function and then into a message arrival. Had the canceled
// flag survived the reuse, RunUntilIdle would drop the message as a
// canceled timer.
func TestReusedEventStartsClean(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(2)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], rec)
	n.SetTimer(nodeIDs[1], 7, time.Millisecond)
	n.CancelTimer(nodeIDs[1], 7)
	n.RunUntilIdle(time.Second)
	if len(n.free) != 1 {
		t.Fatalf("free list holds %d events, want the canceled timer's", len(n.free))
	}
	n.Schedule(2*time.Second, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(3 * time.Second)
	if len(rec.msgs) != 1 || len(rec.timers) != 0 {
		t.Fatalf("got %d messages and %d timers, want the one message", len(rec.msgs), len(rec.timers))
	}
}
