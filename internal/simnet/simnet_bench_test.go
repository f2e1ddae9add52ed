package simnet

import (
	"testing"
	"time"

	"gpbft/internal/codec"
	"gpbft/internal/consensus"
	"gpbft/internal/gcrypto"
)

// BenchmarkEventThroughput measures raw simulator event processing: a
// ring of nodes forwarding a token.
func BenchmarkEventThroughput(b *testing.B) {
	const ring = 8
	n := New(Config{ProcTime: time.Microsecond, SendTime: time.Microsecond})
	nodeIDs := ids(ring)
	token := env(0)
	for i := 0; i < ring; i++ {
		me, next := nodeIDs[i], nodeIDs[(i+1)%ring]
		rec := &recorder{}
		rec.onMsg = func(now consensus.Time, e *consensus.Envelope) {
			n.Send(me, next, e)
		}
		n.AddNode(me, rec)
	}
	n.Schedule(0, func(consensus.Time) { n.Send(nodeIDs[0], nodeIDs[1], token) })
	b.ReportAllocs()
	b.ResetTimer()
	// Each Run step drains as many events as fit one simulated second.
	for i := 0; i < b.N; i++ {
		n.Run(n.Now() + time.Second)
	}
}

// votePayload is a payload of a kind that names its sender, so a
// delivery hands the receiver the shared envelope as it is (a request
// would be copied to take the channel's identity).
type votePayload struct{ N uint64 }

func (p *votePayload) Kind() consensus.MsgKind          { return consensus.KindCommit }
func (p *votePayload) MarshalCanonical(w *codec.Writer) { w.Uint64(p.N) }

// sink ignores everything it is handed.
type sink struct{}

func (sink) HandleMessage(consensus.Time, *consensus.Envelope) {}
func (sink) HandleTimer(consensus.Time, consensus.TimerID)     {}

// BenchmarkBroadcast40 measures one all-to-all round on a 40-node
// committee, the paper's endorser cap: each node sends one envelope to
// the other 39, so one op is 1 560 deliveries (3 120 events) through
// the queue, the CPU model and the traffic meter.
func BenchmarkBroadcast40(b *testing.B) {
	const size = 40
	n := New(Config{
		Latency:  UniformLatency{Base: time.Millisecond, Jitter: time.Millisecond},
		ProcTime: 50 * time.Microsecond,
		SendTime: 5 * time.Microsecond,
	})
	nodeIDs := ids(size)
	for _, id := range nodeIDs {
		n.AddNode(id, sink{})
	}
	vote := consensus.Seal(gcrypto.DeterministicKeyPair(0), &votePayload{N: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, from := range nodeIDs {
			for _, to := range nodeIDs {
				if from != to {
					n.Send(from, to, vote)
				}
			}
		}
		n.RunUntilIdle(n.Now() + time.Hour)
	}
}
