package simnet

import (
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
)

// echoPayload is a trivial payload for traffic tests.
type echoPayload struct{ N uint64 }

func (p *echoPayload) Kind() consensus.MsgKind          { return consensus.KindRequest }
func (p *echoPayload) MarshalCanonical(w *codec.Writer) { w.Uint64(p.N) }
func (p *echoPayload) UnmarshalCanonical(r *codec.Reader) error {
	p.N = r.Uint64()
	return r.Err()
}

// recorder collects events a node saw.
type recorder struct {
	msgs    []consensus.Time
	timers  []consensus.TimerID
	onMsg   func(now consensus.Time, env *consensus.Envelope)
	onTimer func(now consensus.Time, id consensus.TimerID)
}

func (r *recorder) HandleMessage(now consensus.Time, env *consensus.Envelope) {
	r.msgs = append(r.msgs, now)
	if r.onMsg != nil {
		r.onMsg(now, env)
	}
}

func (r *recorder) HandleTimer(now consensus.Time, id consensus.TimerID) {
	r.timers = append(r.timers, id)
	if r.onTimer != nil {
		r.onTimer(now, id)
	}
}

func ids(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = gcrypto.DeterministicKeyPair(i).Address()
	}
	return out
}

func env(i int) *consensus.Envelope {
	return consensus.Seal(gcrypto.DeterministicKeyPair(i), &echoPayload{N: uint64(i)})
}

func TestSendDeliversWithLatencyAndProcTime(t *testing.T) {
	n := New(Config{
		Latency:  UniformLatency{Base: 10 * time.Millisecond},
		ProcTime: 2 * time.Millisecond,
		SendTime: time.Millisecond,
	})
	nodeIDs := ids(2)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], rec)

	n.Schedule(0, func(now consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)

	if len(rec.msgs) != 1 {
		t.Fatalf("delivered %d messages", len(rec.msgs))
	}
	// send(1ms) + latency(10ms) + proc(2ms) = 13ms.
	if rec.msgs[0] != 13*time.Millisecond {
		t.Fatalf("delivered at %v, want 13ms", rec.msgs[0])
	}
}

func TestCPUQueueingSerializesDeliveries(t *testing.T) {
	// Two messages arriving together: second is handled ProcTime after
	// the first — the paper's s msgs/sec model.
	n := New(Config{ProcTime: 5 * time.Millisecond})
	nodeIDs := ids(3)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], nil)
	n.AddNode(nodeIDs[2], rec)

	n.Schedule(0, func(consensus.Time) {
		n.Send(nodeIDs[0], nodeIDs[2], env(0))
		n.Send(nodeIDs[1], nodeIDs[2], env(1))
	})
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 2 {
		t.Fatalf("delivered %d", len(rec.msgs))
	}
	if rec.msgs[1]-rec.msgs[0] != 5*time.Millisecond {
		t.Fatalf("gap %v, want ProcTime 5ms", rec.msgs[1]-rec.msgs[0])
	}
}

func TestSenderCPUSerializesSends(t *testing.T) {
	n := New(Config{SendTime: 3 * time.Millisecond, ProcTime: time.Millisecond})
	nodeIDs := ids(3)
	recB := &recorder{}
	recC := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], recB)
	n.AddNode(nodeIDs[2], recC)
	n.Schedule(0, func(consensus.Time) {
		n.Send(nodeIDs[0], nodeIDs[1], env(0))
		n.Send(nodeIDs[0], nodeIDs[2], env(0))
	})
	n.RunUntilIdle(time.Second)
	// First send done at 3ms (+1ms proc = 4ms), second at 6ms (+1 = 7ms).
	if recB.msgs[0] != 4*time.Millisecond || recC.msgs[0] != 7*time.Millisecond {
		t.Fatalf("deliveries at %v and %v", recB.msgs[0], recC.msgs[0])
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(1)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], rec)
	n.SetTimer(nodeIDs[0], 1, 10*time.Millisecond)
	n.SetTimer(nodeIDs[0], 2, 20*time.Millisecond)
	n.CancelTimer(nodeIDs[0], 2)
	n.RunUntilIdle(time.Second)
	if len(rec.timers) != 1 || rec.timers[0] != 1 {
		t.Fatalf("timers fired: %v", rec.timers)
	}
}

func TestCrashAndRecover(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(2)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], rec)
	n.Crash(nodeIDs[1])
	n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 0 {
		t.Fatal("crashed node must not receive")
	}
	n.Recover(nodeIDs[1])
	n.Schedule(n.Now(), func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 1 {
		t.Fatal("recovered node must receive")
	}
	// Crashed sender emits nothing.
	n.Crash(nodeIDs[0])
	before := n.Traffic().Messages()
	n.Schedule(n.Now(), func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if n.Traffic().Messages() != before {
		t.Fatal("crashed sender must not transmit")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(2)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], rec)
	n.Partition(nodeIDs[0], nodeIDs[1])
	n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 0 {
		t.Fatal("partitioned message must not arrive")
	}
	n.Heal(nodeIDs[0], nodeIDs[1])
	n.Schedule(n.Now(), func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 1 {
		t.Fatal("healed link must deliver")
	}
}

func TestDropRate(t *testing.T) {
	n := New(Config{DropRate: 1.0})
	nodeIDs := ids(2)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], rec)
	n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
	n.RunUntilIdle(time.Second)
	if len(rec.msgs) != 0 {
		t.Fatal("DropRate=1 must drop everything")
	}
	// Traffic still metered: the bytes hit the wire.
	if n.Traffic().Messages() != 1 {
		t.Fatal("dropped messages still count as traffic")
	}
}

func TestTrafficAccounting(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(2)
	n.AddNode(nodeIDs[0], nil)
	n.AddNode(nodeIDs[1], &recorder{})
	e := env(0)
	n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], e) })
	n.RunUntilIdle(time.Second)

	tr := n.Traffic()
	wantBytes := int64(e.WireSize() + DefaultWireOverhead)
	if tr.Bytes() != wantBytes {
		t.Fatalf("bytes %d, want %d", tr.Bytes(), wantBytes)
	}
	if tr.SentBy(nodeIDs[0]) != wantBytes || tr.ReceivedBy(nodeIDs[1]) != wantBytes {
		t.Fatal("per-node accounting wrong")
	}
	byKind := tr.ByKind()
	if len(byKind) != 1 || byKind[0].Kind != consensus.KindRequest || byKind[0].Count != 1 {
		t.Fatalf("by-kind: %+v", byKind)
	}
	if tr.KB() <= 0 {
		t.Fatal("KB must be positive")
	}
	tr.Reset()
	if tr.Bytes() != 0 || tr.Messages() != 0 {
		t.Fatal("Reset must zero the meter")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (consensus.Time, int64) {
		n := New(Config{
			Seed:     7,
			Latency:  UniformLatency{Base: time.Millisecond, Jitter: 5 * time.Millisecond},
			ProcTime: time.Millisecond,
		})
		nodeIDs := ids(4)
		recs := make([]*recorder, 4)
		for i, id := range nodeIDs {
			recs[i] = &recorder{}
			n.AddNode(id, recs[i])
		}
		// Ping-pong storm.
		for i := 0; i < 4; i++ {
			me := nodeIDs[i]
			peer := nodeIDs[(i+1)%4]
			count := 0
			recs[i].onMsg = func(now consensus.Time, _ *consensus.Envelope) {
				if count < 10 {
					count++
					n.Send(me, peer, env(count))
				}
			}
		}
		n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], env(0)) })
		n.RunUntilIdle(10 * time.Second)
		return n.Now(), n.Traffic().Bytes()
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestRunHorizon(t *testing.T) {
	n := New(Config{})
	nodeIDs := ids(1)
	rec := &recorder{}
	n.AddNode(nodeIDs[0], rec)
	n.SetTimer(nodeIDs[0], 1, 50*time.Millisecond)
	n.SetTimer(nodeIDs[0], 2, 150*time.Millisecond)
	n.Run(100 * time.Millisecond)
	if len(rec.timers) != 1 {
		t.Fatalf("events past horizon must wait, fired %v", rec.timers)
	}
	if n.Now() != 100*time.Millisecond {
		t.Fatalf("idle clock must advance to horizon, at %v", n.Now())
	}
	n.Run(200 * time.Millisecond)
	if len(rec.timers) != 2 {
		t.Fatal("second timer must fire in the next window")
	}
}

func TestScheduleInPast(t *testing.T) {
	n := New(Config{})
	fired := consensus.Time(-1)
	n.Schedule(50*time.Millisecond, func(consensus.Time) {
		// Scheduling in the past clamps to the current time.
		n.Schedule(10*time.Millisecond, func(now consensus.Time) { fired = now })
	})
	n.RunUntilIdle(time.Second)
	if fired != 50*time.Millisecond {
		t.Fatalf("past schedule must clamp to now, fired at %v", fired)
	}
}
